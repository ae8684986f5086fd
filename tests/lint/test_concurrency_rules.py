"""Fixture tests for the concurrency rules IOL008/IOL009/IOL010.

Fixtures are written as ``ftl/log.py`` inside the box tree because the
shared-state registry (:mod:`repro.lint.shared`) scopes its entries to
exact package-relative modules.
"""

LOG_REL = "ftl/log.py"


def _codes(box, source, rel=LOG_REL):
    return box.codes(box.write(rel, source))


# -- IOL008: lock order ---------------------------------------------------

INVERSION = '''
class Log:
    def path_a(self, head):
        lock = self._lock_for(head)
        if not lock.try_acquire():
            yield lock.acquire()
        try:
            if not self._alloc_lock.try_acquire():
                yield self._alloc_lock.acquire()
            try:
                pass
            finally:
                self._alloc_lock.release()
        finally:
            lock.release()

    def path_b(self, head):
        if not self._alloc_lock.try_acquire():
            yield self._alloc_lock.acquire()
        try:
            lock = self._lock_for(head)
            if not lock.try_acquire():
                yield lock.acquire()
            try:
                pass
            finally:
                lock.release()
        finally:
            self._alloc_lock.release()
'''


def test_iol008_flags_both_edges_of_an_inversion(box):
    codes = _codes(box, INVERSION)
    assert codes.count("IOL008") == 2


def test_iol008_consistent_order_is_clean(box):
    consistent = INVERSION.replace("def path_b", "def _unused_b")
    # path_b inverted the order; renaming does not help -- instead drop it.
    consistent = INVERSION[:INVERSION.index("    def path_b")]
    assert _codes(box, consistent) == []


def test_iol008_interprocedural_edge_through_helper(box):
    source = '''
class Log:
    def outer(self, head):
        lock = self._lock_for(head)
        yield lock.acquire()
        try:
            yield from self.helper()
        finally:
            lock.release()

    def helper(self):
        if not self._alloc_lock.try_acquire():
            yield self._alloc_lock.acquire()
        try:
            lock2 = self._lock_for("user")
            yield lock2.acquire()
            lock2.release()
        finally:
            self._alloc_lock.release()
'''
    codes = _codes(box, source)
    # helper: free->head direct edge; outer: head->free via helper().
    assert codes.count("IOL008") >= 2


def test_iol008_self_edge_on_double_head_lock(box):
    source = '''
class Log:
    def greedy(self):
        a = self._lock_for("user")
        b = self._lock_for("user.1")
        yield a.acquire()
        yield b.acquire()
        b.release()
        a.release()
'''
    codes = _codes(box, source)
    assert "IOL008" in codes


def test_iol008_guarded_retry_is_one_acquisition(box):
    source = '''
class Log:
    def normal(self, head):
        lock = self._lock_for(head)
        if not lock.try_acquire():
            yield lock.acquire()
        try:
            pass
        finally:
            lock.release()
'''
    assert _codes(box, source) == []


def test_iol008_pragma_suppresses(box):
    # Edges anchor on the acquiring line (the guarded try_acquire);
    # suppress path_b's edge only and the cycle still flags path_a's.
    suppressed = INVERSION.replace(
        "            if not lock.try_acquire():",
        "            if not lock.try_acquire():  "
        "# lint: allow-lock-order(test fixture)")
    codes = _codes(box, suppressed)
    assert codes.count("IOL008") == 1


# -- IOL009: yield discipline ---------------------------------------------

def test_iol009_naked_declared_lock_write(box):
    source = '''
class Log:
    def leak(self):
        self._reserve.append(7)
'''
    codes = _codes(box, source)
    assert codes == ["IOL009"]


def test_iol009_write_inside_declared_span_is_clean(box):
    source = '''
class Log:
    def disciplined(self):
        if not self._alloc_lock.try_acquire():
            raise RuntimeError("contended")
        try:
            self._reserve.append(7)
        finally:
            self._alloc_lock.release()
'''
    assert _codes(box, source) == []


def test_iol009_init_is_exempt(box):
    source = '''
class Log:
    def __init__(self):
        self._free = [[]]
        self._reserve = [[]]
'''
    assert _codes(box, source) == []


def test_iol009_read_yield_write_straddle(box):
    source = '''
class Log:
    def straddle(self, head):
        seg = self._open.get(head)
        yield self.kernel.timeout(1)
        self._open[head] = seg
'''
    codes = _codes(box, source)
    assert codes == ["IOL009"]


def test_iol009_straddle_under_lock_is_clean(box):
    source = '''
class Log:
    def covered(self, head):
        lock = self._lock_for(head)
        if not lock.try_acquire():
            yield lock.acquire()
        try:
            seg = self._open.get(head)
            yield self.kernel.timeout(1)
            self._open[head] = seg
        finally:
            lock.release()
'''
    assert _codes(box, source) == []


def test_iol009_write_before_yield_is_clean(box):
    source = '''
class Log:
    def fine(self, head):
        self._open[head] = None
        yield self.kernel.timeout(1)
        return self._open.get(head)
'''
    assert _codes(box, source) == []


def test_iol009_pragma_suppresses(box):
    source = '''
class Log:
    def straddle(self, head):
        seg = self._open.get(head)
        yield self.kernel.timeout(1)  # lint: allow-yield-straddle(fixture)
        self._open[head] = seg
'''
    assert _codes(box, source) == []


def test_iol009_atomic_entry_straddle_in_vsl(box):
    source = '''
class Vsl:
    def racy_install(self, lba, ppn):
        old = self.map.get(lba)
        yield self.kernel.timeout(1)
        self.map.insert(lba, ppn)
        return old
'''
    codes = _codes(box, source, rel="ftl/vsl.py")
    assert codes == ["IOL009"]


# -- IOL010: blocking acquire in handlers ---------------------------------

def test_iol010_acquire_in_finally(box):
    source = '''
class Worker:
    def run(self, lock):
        try:
            yield 10
        finally:
            yield lock.acquire()
            lock.release()
'''
    codes = _codes(box, source, rel="ftl/worker.py")
    assert "IOL010" in codes


def test_iol010_acquire_in_except(box):
    source = '''
class Worker:
    def run(self, lock):
        try:
            yield 10
        except RuntimeError:
            yield lock.acquire()
            lock.release()
'''
    codes = _codes(box, source, rel="ftl/worker.py")
    assert "IOL010" in codes


def test_iol010_try_acquire_in_finally_is_fine(box):
    source = '''
class Worker:
    def run(self, lock):
        try:
            yield 10
        finally:
            if lock.try_acquire():
                lock.release()
'''
    assert _codes(box, source, rel="ftl/worker.py") == []


def test_iol010_acquire_in_try_body_is_fine(box):
    source = '''
class Worker:
    def run(self, lock):
        try:
            yield lock.acquire()
        finally:
            lock.release()
'''
    assert _codes(box, source, rel="ftl/worker.py") == []


def test_iol010_pragma_suppresses(box):
    source = '''
class Worker:
    def run(self, lock):
        try:
            yield 10
        finally:
            yield lock.acquire()  # lint: allow-handler-acquire(fixture)
            lock.release()
'''
    assert _codes(box, source, rel="ftl/worker.py") == []
