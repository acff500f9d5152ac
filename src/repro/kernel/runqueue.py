"""Per-CPU run queues with a realtime class above a CFS-like fair class."""

import enum
from collections import deque


class SchedClass(enum.Enum):
    """Scheduling classes, highest priority first."""

    REALTIME = 0
    FAIR = 1


def may_run_on(affinities, cpu_id):
    """Whether any affinity set counted in ``affinities`` allows CPU
    ``cpu_id`` (``None`` allows every CPU)."""
    for affinity in affinities:
        if affinity is None or cpu_id in affinity:
            return True
    return False


class RunQueue:
    """Holds READY threads for one CPU.

    Realtime threads are FIFO and always beat fair threads.  Fair threads
    are picked by minimum virtual runtime, weighted by ``nice_weight``
    (a lightweight CFS).

    The queue also counts its fair threads per affinity set, so newidle
    balancing can ask :meth:`may_give` whether any of them may run on a
    CPU by scanning a few distinct sets instead of every thread.  The
    same counts go into ``totals``, a dict the queues of one kernel
    share, so the kernel can ask the question of all its queues at once.
    """

    __slots__ = ("cpu_id", "_rt", "_fair", "_affinities", "_totals",
                 "min_vruntime")

    def __init__(self, cpu_id, totals=None):
        self.cpu_id = cpu_id
        self._rt = deque()
        self._fair = []
        # Queued fair threads per affinity set (``None`` = any CPU); a set
        # whose count falls to zero is removed.
        self._affinities = {}
        self._totals = totals if totals is not None else {}
        self.min_vruntime = 0.0

    def __len__(self):
        return len(self._rt) + len(self._fair)

    @property
    def is_empty(self):
        return not self._rt and not self._fair

    @property
    def has_realtime(self):
        return bool(self._rt)

    def enqueue(self, thread):
        """Add a READY thread; new fair arrivals start at min_vruntime."""
        if thread.sched_class is SchedClass.REALTIME:
            self._rt.append(thread)
        else:
            # Place newly woken threads at the queue's floor so they neither
            # starve nor monopolize the CPU.
            if thread.vruntime < self.min_vruntime:
                thread.vruntime = self.min_vruntime
            self._fair.append(thread)
            self._count(thread.affinity)

    def _count(self, affinity):
        """Add one queued fair thread of ``affinity`` to the counts."""
        affinities = self._affinities
        affinities[affinity] = affinities.get(affinity, 0) + 1
        totals = self._totals
        totals[affinity] = totals.get(affinity, 0) + 1

    def _forget(self, affinity):
        """Drop one queued fair thread of ``affinity`` from the counts."""
        affinities = self._affinities
        left = affinities[affinity] - 1
        if left:
            affinities[affinity] = left
        else:
            del affinities[affinity]
        totals = self._totals
        left = totals[affinity] - 1
        if left:
            totals[affinity] = left
        else:
            del totals[affinity]

    def dequeue(self, thread):
        """Remove a specific thread (e.g. migrated away); returns success."""
        if thread in self._rt:
            self._rt.remove(thread)
            return True
        if thread in self._fair:
            self._fair.remove(thread)
            self._forget(thread.affinity)
            return True
        return False

    def rekey(self, thread, old_affinity):
        """Whether ``thread`` is queued here; a queued fair thread whose
        affinity was replaced (it was ``old_affinity``) is re-counted
        under its new one."""
        if thread in self._rt:
            return True
        if thread in self._fair:
            self._forget(old_affinity)
            self._count(thread.affinity)
            return True
        return False

    def may_give(self, cpu_id):
        """Whether any queued fair thread may run on CPU ``cpu_id``."""
        return may_run_on(self._affinities, cpu_id)

    def steal_candidate(self, cpu_id):
        """The queued fair thread allowed on ``cpu_id`` with the lowest
        ``(vruntime, tid)``, or ``None``; it stays queued."""
        best = None
        for thread in self._fair:
            if thread.can_run_on(cpu_id) and (
                    best is None
                    or thread.vruntime < best.vruntime
                    or (thread.vruntime == best.vruntime
                        and thread.tid < best.tid)):
                best = thread
        return best

    def pick_next(self):
        """Pop the best candidate, or ``None`` if empty."""
        if self._rt:
            return self._rt.popleft()
        fair = self._fair
        if fair:
            # Single-pass scan; ties broken by lowest tid (same selection as
            # min() over (vruntime, tid) tuples, without building keys).
            best_i = 0
            best = fair[0]
            for i in range(1, len(fair)):
                t = fair[i]
                if (t.vruntime < best.vruntime
                        or (t.vruntime == best.vruntime and t.tid < best.tid)):
                    best = t
                    best_i = i
            del fair[best_i]
            self._forget(best.affinity)
            if best.vruntime > self.min_vruntime:
                self.min_vruntime = best.vruntime
            return best
        return None

    def peek_class(self):
        """Scheduling class of the best waiting thread, or ``None``."""
        if self._rt:
            return SchedClass.REALTIME
        if self._fair:
            return SchedClass.FAIR
        return None

    def charge(self, thread, ran_ns):
        """Account ``ran_ns`` of execution to ``thread``'s vruntime."""
        thread.total_runtime_ns += ran_ns
        if thread.sched_class is SchedClass.FAIR:
            thread.vruntime += ran_ns / max(thread.nice_weight, 1e-9)

    def threads(self):
        """Snapshot list of queued threads (realtime first)."""
        return list(self._rt) + sorted(self._fair, key=lambda t: (t.vruntime, t.tid))

    def __repr__(self):
        return f"<RunQueue cpu={self.cpu_id} rt={len(self._rt)} fair={len(self._fair)}>"
