#!/usr/bin/env python3
"""Program-counter sampler for the C kernel's share of a campaign.

cProfile cannot see calls made from C to C, so the harness ledger is
blind inside ``repro/events/_ckernel.c``.  This script samples instead:
an ``ITIMER_PROF`` timer (CPU time of this process only) raises
``SIGPROF``, and a small C handler, compiled with the kernel's compiler
and flags (``repro.events._accel``), records the interrupted stack with
``backtrace()``.  After the run, addresses are mapped to function
symbols with ``nm`` over the objects in ``/proc/self/maps``.

Each sample is charged to its *owner*: the innermost ``_ckernel``
function on its stack, or CPython eval (``_PyEval_EvalFrameDefault``)
when a Python frame comes first.  The kernel owners are grouped into
the event heap, the link core, the transport core, packet construction
and packet free.  Independently, the frames from the leaf up to the
owner say what the sample was doing: allocating, freeing, looking a
name up, or running the cyclic collector.  Run from the repository
root::

    python3 benchmarks/pcsample.py --workload paper-packet --campaigns 40

The workloads are the repo benchmark's (``benchmarks/harness``), at
``--seed``; one four-page warm-up campaign and ``gc.freeze()`` precede
the sampled campaigns.  ``--json PATH`` also writes the table.  The
script skips, with a message and exit status 0, when the C kernel is
not built or a C compiler or ``nm`` is missing.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "harness"))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.events import _accel  # noqa: E402

HANDLER = r"""
#include <execinfo.h>
#include <signal.h>
#include <string.h>
#include <sys/time.h>

static void **frames;
static int *depths;
static long capacity, depth, count, dropped;

static void
on_prof(int sig, siginfo_t *info, void *context)
{
    if (count >= capacity) {
        dropped++;
        return;
    }
    depths[count] = backtrace(frames + count * depth, (int)depth);
    count++;
}

int
pcs_start(void **frame_buf, int *depth_buf, long n, long max_depth,
          long period_us)
{
    void *warm[4];
    struct sigaction action;
    struct itimerval timer;
    backtrace(warm, 4);  /* loads the unwinder outside the handler */
    frames = frame_buf;
    depths = depth_buf;
    capacity = n;
    depth = max_depth;
    count = dropped = 0;
    memset(&action, 0, sizeof(action));
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, NULL) != 0)
        return -1;
    timer.it_interval.tv_sec = period_us / 1000000;
    timer.it_interval.tv_usec = period_us % 1000000;
    timer.it_value = timer.it_interval;
    return setitimer(ITIMER_PROF, &timer, NULL);
}

long
pcs_stop(long *dropped_out)
{
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    *dropped_out = dropped;
    return count;
}
"""

#: Frames kept per sample, and samples kept per run (about 12 MB).
MAX_DEPTH = 32
CAPACITY = 50_000

#: Kernel functions by group; any other ``_ckernel`` function is
#: "other kernel".  Names of earlier kernels are kept so a before/after
#: pair of runs groups alike.
GROUPS = {
    "event heap": (
        "schedule", "sift_up", "sift_down", "heap_", "core_", "cevent_",
        "raise_past", "entry_less", "execute_event",
    ),
    "link core": (
        "link_", "ring_push", "bernoulli_draw", "ckernel_relay_later",
        "windowed_send",
    ),
    "packet free": ("packet_dealloc",),
    "packet construction": (
        "packet_", "chunks_payload", "slotted_new", "chunk_pack", "chunk_new",
        "chunk_from",
    ),
    "transport core": (
        "tc_", "tcm_", "send_", "path_send", "ack_samples", "pop_lost",
        "queue_retransmission", "retx_entry", "rtt_", "cc_", "reno_",
        "float_pow", "plain_number", "deadline_", "loop_call_later",
        "tcp_", "quic_", "deliver", "stats_add", "slot_", "dispatch",
        "ckernel_fire", "request_", "absorb_request_chunk", "stall_ended",
        "trace_", "hook_on", "is_ack", "data_packet_received",
        "release_packet", "own_method", "call_", "map_", "dict_pop",
        "now_object", "fast_path_advance", "stream_callback",
        "can_send_requests", "next_of", "attr_", "add_ll", "as_",
        "ack_pending_list", "require_", "fired_connection", "result_status",
        "sample_loss", "class_float", "py_max", "native_cc", "chunk_get",
        "resolve_",
    ),
}
GROUP_ORDER = ("event heap", "link core", "transport core",
               "packet construction", "packet free", "other kernel")

#: What the leaf-to-owner frames were doing, checked innermost first.
GC_SYMBOLS = ("gc_collect", "collect_generations", "visit_decref",
              "visit_reachable", "subtract_refs", "move_unreachable",
              "update_refs", "deduce_unreachable", "gc_collect_main")
FREE_SYMBOLS = ("_PyObject_Free", "PyObject_Free", "PyObject_GC_Del",
                "PyMem_Free", "_PyMem_RawFree", "free", "cfree")
ALLOC_SYMBOLS = ("_PyObject_Malloc", "PyObject_Malloc", "pymalloc_alloc",
                 "_PyObject_GC_New", "gc_alloc", "_PyObject_GC_Link",
                 "PyObject_GC_Track", "PyMem_Malloc", "PyMem_Realloc",
                 "_PyMem_RawMalloc", "malloc", "realloc", "calloc",
                 "PyType_GenericAlloc", "_PyLong_New", "PyFloat_FromDouble",
                 "PyTuple_New", "allocate_from_new_pool")
LOOKUP_MARKS = ("lookdict", "lookup", "GetAttr", "GetItem", "GetMethod",
                "_PyType_Lookup", "find_name_in_mro", "unicode_eq")
ACTIVITIES = ("allocator", "frees", "name lookup", "cyclic collector")


def activity(symbol: str) -> str | None:
    """The activity a frame's function stands for, if any.  A versioned
    name (``memcpy@@GLIBC_2.14``) is a stripped library's nearest
    export, so only its base name counts, and never as a lookup."""
    base = symbol.split("@")[0]
    if base.startswith(GC_SYMBOLS) or base.endswith("_traverse"):
        return "cyclic collector"
    if base in FREE_SYMBOLS or "dealloc" in base:
        return "frees"
    if base in ALLOC_SYMBOLS:
        return "allocator"
    if base == symbol and any(mark in symbol for mark in LOOKUP_MARKS):
        return "name lookup"
    return None


def group_of(kernel_function: str) -> str:
    for group, prefixes in GROUPS.items():
        if kernel_function.startswith(prefixes):
            return group
    return "other kernel"


def skip(reason: str) -> int:
    print(f"pcsample: skipped: {reason}")
    return 0


def build_handler(cc: str, out_dir: str) -> ctypes.CDLL:
    """Compile the SIGPROF handler with the kernel's compiler and flags."""
    source = os.path.join(out_dir, "pcsample.c")
    library = os.path.join(out_dir, "pcsample.so")
    with open(source, "w") as handle:
        handle.write(HANDLER)
    subprocess.run([cc, *_accel._CFLAGS, source, "-o", library], check=True)
    lib = ctypes.CDLL(library, use_errno=True)
    lib.pcs_start.argtypes = (
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
        ctypes.c_long,
    )
    lib.pcs_stop.argtypes = (ctypes.POINTER(ctypes.c_long),)
    lib.pcs_stop.restype = ctypes.c_long
    return lib


class Symbols:
    """Address → function name over the executable mappings of this
    process, each object's table read with ``nm``."""

    def __init__(self) -> None:
        self._ranges: list[tuple[int, int, str]] = []
        bases: dict[str, int] = {}
        with open("/proc/self/maps") as maps:
            for line in maps:
                parts = line.split()
                if len(parts) < 6 or not parts[5].startswith("/"):
                    continue
                start, end = (int(x, 16) for x in parts[0].split("-"))
                offset, path = int(parts[2], 16), parts[5]
                bases[path] = min(bases.get(path, start - offset), start - offset)
                if "x" in parts[1]:
                    self._ranges.append((start, end, path))
        self._ranges.sort()
        self._starts = [start for start, _, _ in self._ranges]
        self._bases = bases
        self._tables: dict[str, tuple[list[int], list[str]]] = {}

    def _table(self, path: str) -> tuple[list[int], list[str]]:
        table = self._tables.get(path)
        if table is None:
            with open(path, "rb") as handle:
                header = handle.read(18)
            # ET_EXEC symbols are absolute; ET_DYN ones are load offsets.
            base = 0 if header[16:18] == b"\x02\x00" else self._bases[path]
            entries = []
            for flags in (["--defined-only"], ["--defined-only", "-D"]):
                out = subprocess.run(
                    ["nm", *flags, path], capture_output=True, text=True
                ).stdout
                for line in out.splitlines():
                    fields = line.split()
                    if len(fields) == 3 and fields[1] in "tTwW":
                        entries.append((int(fields[0], 16) + base, fields[2]))
                if entries:
                    break
            entries.sort()
            table = ([a for a, _ in entries], [n for _, n in entries])
            self._tables[path] = table
        return table

    def lookup(self, address: int) -> tuple[str, str]:
        """(object path, function) of address; '?' where unknown."""
        i = bisect.bisect_right(self._starts, address) - 1
        if i < 0 or address >= self._ranges[i][1]:
            return "?", "?"
        path = self._ranges[i][2]
        addresses, names = self._table(path)
        j = bisect.bisect_right(addresses, address) - 1
        return path, names[j] if j >= 0 else "?"


def classify(stacks, kernel_path: str, symbols: Symbols):
    """Per-sample (owner, activity, kernel functions on the way)."""
    out = []
    for stack in stacks:
        frames = []
        for position, address in enumerate(stack):
            # Past the interrupted instruction, frames are return
            # addresses: the call is the byte before.
            frames.append(symbols.lookup(address - (1 if position else 0)))
        # Walk out from the leaf: the activity is the first match up to
        # (and including) the owner; kernel frames count up to the first
        # Python frame.
        owner, doing, kernel = "other", None, []
        for path, name in frames:
            if path != kernel_path and name == "_PyEval_EvalFrameDefault":
                if owner == "other":
                    owner = "python"
                break
            if owner == "other" and doing is None:
                doing = activity(name)
            # The module's PLT stubs sit past the last symbol before
            # them (_init): a call out, owned by the caller.
            if path == kernel_path and name != "_init":
                kernel.append(name)
                if owner == "other":
                    owner = name
        out.append((owner, doing, kernel))
    return out


def sample_campaigns(lib, workload: str, seed: int, campaigns: int, period_us: int):
    from repro.measurement import CampaignPlan, execute
    from repro.web.topsites import cached_universe
    from workloads import UNIVERSE_CONFIG, UNIVERSE_SEED, WORKLOADS

    spec = WORKLOADS[workload]
    universe = cached_universe(UNIVERSE_CONFIG, UNIVERSE_SEED)
    sim = spec.scenario.campaign_config(seed=seed).sim
    execute(CampaignPlan(universe=universe, sim=sim, pages=universe.pages[:4]))
    plan = CampaignPlan(universe=universe, sim=sim, pages=universe.pages[: spec.pages])
    gc.collect()
    gc.freeze()
    frames = (ctypes.c_void_p * (CAPACITY * MAX_DEPTH))()
    depths = (ctypes.c_int * CAPACITY)()
    if lib.pcs_start(frames, depths, CAPACITY, MAX_DEPTH, period_us) != 0:
        raise OSError(ctypes.get_errno(), "could not arm ITIMER_PROF")
    try:
        for _ in range(campaigns):
            execute(plan)
    finally:
        dropped = ctypes.c_long()
        count = lib.pcs_stop(ctypes.byref(dropped))
        gc.unfreeze()
    stacks = []
    for i in range(count):
        raw = frames[i * MAX_DEPTH: i * MAX_DEPTH + depths[i]]
        stacks.append([address or 0 for address in raw])
    return stacks, dropped.value


def strip_handler(stacks, symbols: Symbols, handler_path: str):
    """Drop the handler's frames and the signal trampoline after them:
    each stack then starts at the interrupted instruction."""
    out = []
    for stack in stacks:
        for i, address in enumerate(stack):
            if symbols.lookup(address)[0] != handler_path:
                out.append(stack[i + 1:])
                break
    return out


def report(classified, campaigns: int, period_us: int) -> tuple[dict, dict]:
    """Rows, and the 15 commonest owning kernel functions, each as
    (CPU ms per campaign, % of samples): a sample stands for one timer
    period of this process's CPU."""
    total = len(classified)

    def row(n: int) -> tuple[float, float]:
        return (
            round(n * period_us / 1000.0 / campaigns, 2),
            round(100.0 * n / total, 2) if total else 0.0,
        )

    under_kernel = [c for c in classified if c[0] not in ("python", "other")]
    groups = Counter(group_of(owner) for owner, _, _ in under_kernel)
    doing = Counter(d for _, d, _ in under_kernel if d is not None)
    doing_all = Counter(d for _, d, _ in classified if d is not None)
    table = {
        "all samples": row(total),
        "under a kernel frame": row(len(under_kernel)),
        "python eval": row(sum(1 for owner, _, _ in classified if owner == "python")),
        **{g: row(groups[g]) for g in GROUP_ORDER},
        **{f"{a} (under kernel)": row(doing[a]) for a in ACTIVITIES},
        **{f"{a} (all)": row(doing_all[a]) for a in ACTIVITIES},
        "frees under tc_server_on_ack": row(sum(
            1 for _, d, kernel in under_kernel
            if d == "frees" and "tc_server_on_ack" in kernel
        )),
        "slot_get": row(sum(1 for owner, _, _ in under_kernel if owner == "slot_get")),
    }
    top = Counter(owner for owner, _, _ in under_kernel).most_common(15)
    return table, {name: row(n) for name, n in top}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="paper-packet",
                        choices=("paper-packet", "cdn-fastpath", "lossy-migration"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--campaigns", type=int, default=40)
    parser.add_argument("--period-us", type=int, default=1000)
    parser.add_argument("--json", help="also write the table here")
    args = parser.parse_args(argv)

    from repro.events.loop import _ckernel

    cc = _accel.compiler()
    if _ckernel is None:
        return skip("the C kernel is not built")
    if cc is None:
        return skip("no C compiler on PATH")
    if shutil.which("nm") is None:
        return skip("nm not on PATH")
    with tempfile.TemporaryDirectory(prefix="pcsample-") as out_dir:
        lib = build_handler(cc, out_dir)
        stacks, dropped = sample_campaigns(
            lib, args.workload, args.seed, args.campaigns, args.period_us
        )
        symbols = Symbols()
        stacks = strip_handler(stacks, symbols, lib._name)
        rows, top = report(
            classify(stacks, _ckernel.__file__, symbols),
            args.campaigns, args.period_us,
        )
    width = max(len(key) for key in (*rows, *top)) + 2
    print(f"pcsample: {args.workload}, seed {args.seed}, {args.campaigns} "
          f"campaigns, {args.period_us} us period, {dropped} samples dropped")
    for title, table in (("", rows), ("innermost kernel function", top)):
        print(f"  {title:<{width}} {'ms/campaign':>12} {'%':>7}")
        for key, (ms, pct) in table.items():
            print(f"  {key:<{width}} {ms:12.2f} {pct:7.2f}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"dropped": dropped, "rows": rows, "top": top}, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
