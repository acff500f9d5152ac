"""FIFO stores used as message queues between simulated components."""

from collections import deque

from repro.sim.events import Event, PRIORITY_NORMAL, _PENDING


class StorePut(Event):
    """Event for a pending put; succeeds when the item is accepted."""

    __slots__ = ("item",)

    def __init__(self, store, item):
        # Event.__init__ inlined: every packet deposit makes one.
        self.env = store.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self.item = item


class StoreGet(Event):
    """Event for a pending get; succeeds with the retrieved item."""

    __slots__ = ()

    def __init__(self, store):
        super().__init__(store.env)


class Store:
    """An unbounded-or-bounded FIFO queue of arbitrary items.

    ``put`` succeeds immediately while below capacity; ``get`` succeeds
    immediately when items are available, else parks the getter.  The
    ordering of both items and waiters is strictly FIFO, which keeps packet
    queues and run queues deterministic.
    """

    __slots__ = ("env", "capacity", "name", "items", "_getters", "_putters",
                 "consumer")

    def __init__(self, env, capacity=None, name=None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name or "store"
        self.items = deque()
        self._getters = deque()
        self._putters = deque()
        # The poll-mode consumer of this store, if any: an object whose
        # ``_bell`` attribute holds its armed wake event, or ``None`` while
        # it is not sleeping (see :class:`~repro.dp.service.DPService`).
        self.consumer = None

    def __len__(self):
        return len(self.items)

    @property
    def is_empty(self):
        return not self.items

    @property
    def is_full(self):
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item):
        """Queue ``item``; returns an event that fires once accepted."""
        event = StorePut(self, item)
        items = self.items
        if (self._putters or self._getters or (
                self.capacity is not None and len(items) >= self.capacity)):
            self._putters.append(event)
            self._dispatch()
            return event
        # Fast path, the common case on packet queues: nobody waits and
        # there is room, so the item is accepted at once.  Same order as
        # ``_dispatch``: the put succeeds (``succeed()`` inlined: the
        # event is new, so it is pending), then the consumer's bell rings.
        items.append(item)
        event._ok = True
        event._value = None
        env = self.env
        env._ready.append((env.now, PRIORITY_NORMAL, next(env._eid), event))
        consumer = self.consumer
        if consumer is not None:
            bell = consumer._bell
            if bell is not None and bell._value is _PENDING:
                bell.succeed(len(items))
        return event

    def get(self):
        """Request the next item; returns an event firing with the item."""
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self):
        """Non-blocking get: pop and return the head item or ``None``."""
        if not self.items:
            return None
        item = self.items.popleft()
        self._dispatch()
        return item

    def get_batch(self, max_items):
        """Non-blocking bulk get of up to ``max_items`` items (rx_burst)."""
        batch = []
        while self.items and len(batch) < max_items:
            batch.append(self.items.popleft())
        if batch:
            self._dispatch()
        return batch

    def _dispatch(self):
        # Move items from pending putters to the buffer, then satisfy getters.
        progressed = True
        while progressed:
            progressed = False
            while self._putters and not self.is_full:
                put_event = self._putters.popleft()
                self.items.append(put_event.item)
                put_event.succeed()
                progressed = True
            while self._getters and self.items:
                get_event = self._getters.popleft()
                get_event.succeed(self.items.popleft())
                progressed = True
            if self.items and self.consumer is not None:
                # Ring the consumer's doorbell without consuming anything:
                # it wakes and drains the store with get_batch.
                bell = self.consumer._bell
                if bell is not None and not bell.triggered:
                    bell.succeed(len(self.items))

    def __repr__(self):
        return f"<Store {self.name!r} items={len(self.items)} cap={self.capacity}>"
