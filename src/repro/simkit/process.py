"""Generator-based simulation processes.

A process is a Python generator that yields :class:`~repro.simkit.events.Event`
objects.  The kernel resumes the generator with the event's value when it
fires (or throws the event's exception into it).  A :class:`Process` is
itself an event that fires with the generator's return value, so processes
can wait on each other.

The RM engine runs no processes — jobs are flat FSMs
(:mod:`repro.rm.lifecycle`) and its periodic loops are timers on the
kernel's timer lane.  Processes serve simulations written as plain
generators (the placement study's builder loop) and the test suite's
generator-lifecycle oracle the FSM is checked against.
"""

from __future__ import annotations

import typing as t

from repro.errors import ProcessInterrupt, SimulationError
from repro.simkit.events import PRIORITY_URGENT, Event

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkit.core import Simulator


class Process(Event):
    """A running generator activity; also an event for its completion."""

    __slots__ = ("name", "_generator", "_waiting_on", "_resume_cb", "_wait_slot")

    def __init__(
        self,
        sim: "Simulator",
        generator: t.Generator[Event, t.Any, t.Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Event | None = None
        # One bound method for the process's whole life: ``self._resume``
        # creates a *new* bound-method object on every attribute access,
        # so detaching by identity needs the registered object cached.
        self._resume_cb: t.Callable[[Event], None] = self._resume
        #: index of ``_resume_cb`` in ``_waiting_on.callbacks`` — the
        #: O(1) detach handle (callback lists only ever grow, so the
        #: slot index is stable for the wait's duration).
        self._wait_slot = -1
        # Bootstrap: resume for the first time via an immediately-fired event.
        init = Event(sim)
        init._ok = True  # noqa: SLF001 - kernel-internal
        init._value = None  # noqa: SLF001
        assert init.callbacks is not None
        init.callbacks.append(self._resume_cb)
        sim.schedule(init, PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: t.Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        waiting on an event detaches it from that event first.

        Delivery is *deferred*: the interrupt rides an URGENT event at the
        current tick, so it lands after the caller's own callback returns.
        If the process completes in that window — another same-tick URGENT
        event (e.g. a second interrupt) resumes it to the end first — the
        late delivery silently no-ops via the ``triggered`` guard in
        :meth:`_resume` rather than erroring: by the time it arrives,
        "interrupt a finished process" has already happened and the caller
        that scheduled it cannot be re-entered.  The FSM lifecycle mirrors
        exactly this semantics with a synchronous no-op kill on a finished
        job (``tests/rm/test_lifecycle.py`` pins both paths).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        ev = Event(self.sim)
        ev._ok = False  # noqa: SLF001
        ev._value = ProcessInterrupt(cause)  # noqa: SLF001
        ev.defused = True
        assert ev.callbacks is not None
        ev.callbacks.append(self._resume_cb)
        self.sim.schedule(ev, PRIORITY_URGENT)

    # -- kernel callback ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self.triggered:  # interrupted after completion already delivered
            return
        # Detach from the event we were waiting on (interrupt case).
        # Dead-slot mark, not ``list.remove``: with thousands of waiters
        # parked on one event a linear scan per interrupt is O(n²), and a
        # swap-pop would reorder surviving callbacks and break replay
        # determinism.  The slot is blanked in place and the kernel's
        # dispatch loops skip ``None`` entries.
        waited = self._waiting_on
        if waited is not None and waited is not event and waited.callbacks is not None:
            cbs = waited.callbacks
            slot = self._wait_slot
            if 0 <= slot < len(cbs) and cbs[slot] is self._resume_cb:
                cbs[slot] = None
            else:  # pragma: no cover - defensive; slots never move today
                try:
                    cbs.remove(self._resume_cb)
                except ValueError:
                    pass
        self._waiting_on = None
        self._wait_slot = -1
        try:
            if event.ok:
                target = self._generator.send(event.value)
            else:
                event.defused = True
                target = self._generator.throw(t.cast(BaseException, event.value))
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through event
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            try:
                self._generator.throw(exc)
            except BaseException as err:  # noqa: BLE001
                self.fail(err)
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        if target.processed:
            # Already fired: resume immediately (still via the heap for
            # deterministic ordering at the current time).
            ev = Event(self.sim)
            ev._ok = target._ok  # noqa: SLF001
            ev._value = target._value  # noqa: SLF001
            ev.defused = True
            assert ev.callbacks is not None
            ev.callbacks.append(self._resume_cb)
            self.sim.schedule(ev, PRIORITY_URGENT)
        else:
            assert target.callbacks is not None
            self._wait_slot = len(target.callbacks)
            target.callbacks.append(self._resume_cb)
            self._waiting_on = target

    def describe(self) -> dict[str, t.Any]:
        state = super().describe()
        state["name"] = self.name
        state["waiting"] = (
            None if self._waiting_on is None else type(self._waiting_on).__name__
        )
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
