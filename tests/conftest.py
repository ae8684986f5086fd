"""Shared fixtures: small simulated devices that build in milliseconds."""

import random

import pytest

from repro.core.iosnap import IoSnapConfig, IoSnapDevice
from repro.ftl.vsl import FtlConfig, VslDevice
from repro.nand.device import NandDevice
from repro.nand.geometry import NandConfig, NandGeometry
from repro.sim import Kernel


def tiny_geometry(page_size: int = 4096) -> NandGeometry:
    """~2 MiB: 512 pages across 4 dies; cleaning kicks in quickly."""
    return NandGeometry(page_size=page_size, pages_per_block=16,
                        blocks_per_die=8, dies=4, channels=2)


def small_geometry(page_size: int = 4096) -> NandGeometry:
    """~8 MiB: room for multi-snapshot scenarios."""
    return NandGeometry(page_size=page_size, pages_per_block=32,
                        blocks_per_die=16, dies=4, channels=2)


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def nand(kernel) -> NandDevice:
    return NandDevice(kernel, NandConfig(geometry=tiny_geometry()))


@pytest.fixture
def vsl(kernel) -> VslDevice:
    return VslDevice.create(kernel, NandConfig(geometry=small_geometry()),
                            FtlConfig())


@pytest.fixture
def iosnap(kernel) -> IoSnapDevice:
    return IoSnapDevice.create(kernel, NandConfig(geometry=small_geometry()),
                               IoSnapConfig())


@pytest.fixture
def iosnap_writable(kernel) -> IoSnapDevice:
    return IoSnapDevice.create(
        kernel, NandConfig(geometry=small_geometry()),
        IoSnapConfig(writable_activations=True))


def make_iosnap(kernel, geometry=None, **config_overrides) -> IoSnapDevice:
    """Builder for tests needing non-default configuration."""
    return IoSnapDevice.create(
        kernel, NandConfig(geometry=geometry or small_geometry()),
        IoSnapConfig(**config_overrides))


def replication_script(seed: int = 2014, span: int = 24) -> list:
    """The fixed torture script of the replication tests.

    A seeded history — 40 writes, snapshot ``base``, 14 writes and 3
    trims, snapshot ``target``, 30 writes, two forced cleaner passes so
    sent blocks have moved — then the chained transfer: a full send of
    ``base`` and an incremental send of ``target`` on top of it.
    """
    rng = random.Random(seed)
    script = [["write", rng.randrange(span), i] for i in range(40)]
    script.append(["snap_create", "base"])
    script += [["write", rng.randrange(span), 1000 + i] for i in range(14)]
    script += [["trim", rng.randrange(span)] for _ in range(3)]
    script.append(["snap_create", "target"])
    script += [["write", rng.randrange(span), 2000 + i] for i in range(30)]
    script += [["gc"], ["gc"], ["send", "base"], ["send", "target", "base"]]
    return script
