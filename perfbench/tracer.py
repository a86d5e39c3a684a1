"""Layer spans recorded from outside the program.

The tracer wraps public functions of the program (module functions and
class methods) with timing shims, aggregates the spans as they close, and
puts every wrapped attribute back when it is uninstalled. Nothing in the
program knows it is being traced.

Aggregation happens on the fly, per layer name:

* ``calls`` — spans closed;
* ``inclusive`` — wall seconds of the outermost span of that name (a layer
  re-entered inside itself is not counted twice);
* ``self_time`` — span duration minus the part covered by child spans;
* ``edges`` — inclusive seconds of each (parent layer, child layer) pair;
* ``root_seconds`` — wall seconds covered by spans with no parent, which
  is what a caller subtracts from its own wall time to find the time no
  layer accounts for.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``observe(result, args, kwargs)`` runs after a wrapped call returns.
Observer = Callable[[Any, tuple, dict], None]


class LayerTracer:
    """Span aggregation plus reversible function wrapping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[list] = []  # frames: [name, start, child seconds]
        self._depth: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], float] = defaultdict(float)
        self.root_seconds = 0.0
        # (owner, attribute, original, owner had its own attribute)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])
        self._depth[name] += 1

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self._clock() - start
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if self._depth[name] == 0:
            self.inclusive[name] += duration
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            self.edges[(parent[0], name)] += duration
        else:
            self.root_seconds += duration

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        """``fn`` inside a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted but not timed."""
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------

    def install(self, owner: Any, attribute: str, name: str, *,
                count_only: bool = False,
                observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attribute`` (a module or a class) with a
        wrapped version until :meth:`uninstall`."""
        namespace = vars(owner)
        had_own = attribute in namespace
        original = namespace[attribute] if had_own else getattr(owner,
                                                                attribute)
        if not callable(original):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        wrapped = (self.count(name, original) if count_only
                   else self.wrap(name, original, observe))
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, original, had_own))

    def uninstall(self) -> List[Tuple[Any, str, Any, bool]]:
        """Restore every wrapped attribute, newest first; returns what was
        restored so a caller can verify it."""
        restored = list(self._patches)
        while self._patches:
            owner, attribute, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        return restored

    @property
    def open_spans(self) -> int:
        return len(self._stack)


def restored_cleanly(patches: List[Tuple[Any, str, Any, bool]]) -> bool:
    """True when every patched attribute is back to its original."""
    for owner, attribute, original, had_own in patches:
        namespace = vars(owner)
        if had_own:
            if namespace.get(attribute) is not original:
                return False
        elif attribute in namespace:
            return False
    return True
