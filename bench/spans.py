"""In-memory spans recorded by the benchmark around its calls into nbl_lab.

A span has a name ``<module>.<call>``, a start and end in perf_counter_ns,
and the index of the span open when it began (-1 at top level).  The
benchmark is single-threaded, so a span's children never overlap and the
part of it they cover is the sum of their durations.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

BLOCK_BITS = 512  # one 64-byte blake2b block of an rtw stream, for the blocks_hashed counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter_ns(), 0, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter_ns()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called *name*."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def per_name(self) -> dict[str, tuple[int, int]]:
        """name -> (span count, total ns)."""
        stats: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for name, start, end, _ in self.spans:
            stats[name][0] += 1
            stats[name][1] += end - start
        return {name: (count, total) for name, (count, total) in stats.items()}

    def self_ns_by_module(self) -> dict[str, int]:
        """Module -> summed self time: each span's duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            totals[name.split(".", 1)[0]] += end - start - covered
        return dict(totals)

    def dump(self, path, **header) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}, fh)
