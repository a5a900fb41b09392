#!/usr/bin/env python3
"""Stack-sampling profiler for one `rvbench child` rep, standard library only.

Starts `rvbench child WORKLOAD --seed N`, attaches to every thread with
PTRACE_SEIZE, and at a fixed rate interrupts each running thread, reads its
registers, walks the frame-pointer chain through /proc/PID/mem and lets it
go. Return addresses are symbolised once, at the end, with `addr2line -i`,
so inlined frames count as frames. It prints each function's inclusive
share (samples with the function anywhere on the stack) and self share
(samples with it innermost).

The binary must keep frame pointers and line tables. Build it apart from
the benchmark's own target directory so the timed binary is not disturbed:

    RUSTFLAGS="-C force-frame-pointers=yes" \\
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
    CARGO_TARGET_DIR=target/profile \\
        cargo build --release --offline --manifest-path rvbench/Cargo.toml
    python3 scripts/profile_stacks.py target/profile/release/rvbench \\
        --workload classic_serial --seeds 536937988 20010611 \\
        --focus 'rv_net::network::Network<P>::poll' 'rv_net::network::Network<P>::send'

`--focus` names are matched as substrings of the demangled names; each
prints its inclusive share, and all of them together print the share of
samples holding any of them (what "Network::poll + send" means).

`--by-module` adds each repository module's self share: a sample counts
toward the first `crates/<crate>/src/<file>.rs` frame on its stack,
innermost first, so time in the standard library (called, or inlined
into a repository function) counts toward the repository code that ran
it:

    python3 scripts/profile_stacks.py target/profile/release/rvbench \\
        --workload faulted_gateway --seeds 536937988 20010611 --by-module

Linux x86-64 only. Frames in code without frame pointers (libc's memcpy,
the prebuilt standard library) hide their caller.
"""

import argparse
import collections
import ctypes
import os
import re
import signal
import struct
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000  # waitpid's __WALL: wait for threads as well as processes
# user_regs_struct on x86-64: 27 unsigned longs; rbp, rip, rsp by index.
REGS_WORDS = 27
RBP, RIP = 4, 16
MAX_DEPTH = 256

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(request, tid, addr=None, data=None):
    if libc.ptrace(request, tid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))


def running_threads(pid):
    """Thread ids of `pid` currently on a CPU or runnable."""
    tids = []
    try:
        for name in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{name}/stat") as f:
                    stat = f.read()
            except OSError:
                continue
            # The state follows the parenthesised command name.
            if stat[stat.rindex(")") + 2] == "R":
                tids.append(int(name))
    except OSError:
        pass
    return tids


def walk(mem, regs):
    """Return addresses, innermost first: rip, then one per frame."""
    stack = [regs[RIP]]
    fp = regs[RBP]
    for _ in range(MAX_DEPTH):
        if fp == 0 or fp % 8:
            break
        try:
            next_fp, ret = struct.unpack("<QQ", os.pread(mem, 16, fp))
        except OSError:
            break
        if ret == 0:
            break
        # One byte back lands inside the call instruction, so addr2line
        # names the call site's line, not the next statement's.
        stack.append(ret - 1)
        if next_fp <= fp:
            break
        fp = next_fp
    return stack


def reap(pid, seized):
    """Takes every pending wait status of the traced threads: a stop is
    resumed (a signal's passes the signal on; an interrupt that
    `sample` stopped waiting for resumes as it was) and an exit is
    forgotten. True once the process has exited."""
    while True:
        try:
            wpid, status = os.waitpid(-1, os.WNOHANG | WALL)
        except ChildProcessError:
            return True
        if wpid == 0:
            return False
        if os.WIFSTOPPED(status):
            ours = status >> 16 == PTRACE_EVENT_STOP
            try:
                ptrace(PTRACE_CONT, wpid, None, 0 if ours else os.WSTOPSIG(status))
            except OSError:
                pass
        else:
            seized.discard(wpid)
            if wpid == pid:
                return True


def stopped(tid, timeout=0.05):
    """`tid`'s next wait status, or None if it has none within `timeout`
    (`reap` then takes it). Never blocks: a thread group leader that
    exits is not reported until its traced siblings are reaped."""
    give_up = time.monotonic() + timeout
    while True:
        wpid, status = os.waitpid(tid, os.WNOHANG | WALL)
        if wpid:
            return status
        if time.monotonic() > give_up:
            return None
        time.sleep(0.0001)


def sample(pid, hz):
    """Samples every running thread of `pid` until it exits."""
    samples = []
    seized = set()
    mem = os.open(f"/proc/{pid}/mem", os.O_RDONLY)
    regs = (ctypes.c_ulong * REGS_WORDS)()
    period = 1.0 / hz
    next_at = time.monotonic()
    done = False
    while not done and not reap(pid, seized):
        for tid in running_threads(pid):
            try:
                if tid not in seized:
                    ptrace(PTRACE_SEIZE, tid)
                    seized.add(tid)
                ptrace(PTRACE_INTERRUPT, tid)
                status = stopped(tid)
                if status is None:
                    continue
                if not os.WIFSTOPPED(status):
                    seized.discard(tid)
                    done = done or tid == pid
                    continue
                ptrace(PTRACE_GETREGS, tid, None, ctypes.byref(regs))
                samples.append(walk(mem, regs))
                # The interrupt's own stop resumes as it was; a stop for a
                # signal that arrived meanwhile passes the signal on (and
                # `reap` resumes the interrupt's stop when it comes).
                ours = status >> 16 == PTRACE_EVENT_STOP
                ptrace(PTRACE_CONT, tid, None, 0 if ours else os.WSTOPSIG(status))
            except (OSError, ChildProcessError):
                continue  # the thread ended between the listing and the stop
        next_at += period
        delay = next_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        else:
            next_at = time.monotonic()
    os.close(mem)
    return samples


def executable_range(pid, binary):
    """The executable's mapped address range; its start is the load bias
    (the first, offset-0 mapping of a position-independent executable)."""
    real = os.path.realpath(binary)
    spans = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            fields = line.split()
            if len(fields) >= 6 and fields[5] == real:
                start, end = (int(x, 16) for x in fields[0].split("-"))
                spans.append((start, end))
    if not spans:
        raise RuntimeError(f"{real} is not mapped in process {pid}")
    return min(s for s, _ in spans), max(e for _, e in spans)


def symbolise(binary, addresses):
    """address -> [(function, source file), ...] innermost first, inlined
    frames included."""
    names = {}
    addresses = sorted(addresses)
    for start in range(0, len(addresses), 2000):
        batch = addresses[start:start + 2000]
        out = subprocess.run(
            ["addr2line", "-e", binary, "-f", "-i", "-C", "-a"] + [hex(a) for a in batch],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        current = None
        i = 0
        while i < len(out):
            line = out[i]
            if re.fullmatch(r"0x[0-9a-f]+", line):
                current = int(line, 16)
                names[current] = []
                i += 1
                continue
            # The function line, then its `file:line (discriminator n)`.
            path = out[i + 1].split(" (")[0].rsplit(":", 1)[0]
            names[current].append((clean(line), path))
            i += 2
    return names


def clean(name):
    """Drops the legacy-mangling hash suffix from a name."""
    return re.sub(r"::h[0-9a-f]{16}$", "", name)


# A repository module's source file, as `<crate>/<file>.rs`.
MODULE = re.compile(r"crates/([^/]+)/src/(.+\.rs)$")


def module_of(stack):
    """The first repository module on `stack` (innermost first)."""
    for _, path in stack:
        m = MODULE.search(path)
        if m:
            return f"{m[1]}/{m[2]}"
    return "[no crates/ frame]"


def profile(binary, workload, seed, hz):
    child = subprocess.Popen(
        [binary, "child", workload, "--seed", str(seed)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    time.sleep(0.02)  # let the loader map the executable
    try:
        base, end = executable_range(child.pid, binary)
        samples = sample(child.pid, hz)
    except BaseException:
        child.send_signal(signal.SIGKILL)
        raise
    # Frames in other objects (libc, the loader) keep no address.
    return [[a - base if base <= a < end else None for a in stack] for stack in samples]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("binary", help="an rvbench built with frame pointers and line tables")
    p.add_argument("--workload", default="classic_serial")
    p.add_argument("--seeds", nargs="+", type=int, default=[536937988])
    p.add_argument("--hz", type=float, default=1000.0, help="samples a second a thread")
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--focus", nargs="*", default=[], help="name substrings to report")
    p.add_argument("--by-module", action="store_true",
                   help="also print self shares by the first crates/<crate>/src/<file>.rs frame")
    args = p.parse_args()

    stacks = []
    for seed in args.seeds:
        got = profile(args.binary, args.workload, seed, args.hz)
        print(f"seed {seed}: {len(got)} samples", file=sys.stderr)
        stacks.extend(got)
    if not stacks:
        sys.exit("no samples: is ptrace permitted here?")
    names = symbolise(args.binary, {a for s in stacks for a in s if a is not None})
    names[None] = [("[another object]", "")]
    located = [[f for a in s for f in names.get(a, [("??", "")])] for s in stacks]
    frames = [[name for name, _ in fs] for fs in located]

    n = len(frames)
    inclusive = collections.Counter()
    own = collections.Counter()
    for fs in frames:
        inclusive.update(set(fs) - {"??"})
        own[fs[0] if fs else "??"] += 1
    print(f"{n} samples, {args.workload}, seeds {' '.join(map(str, args.seeds))}")
    print(f"\n{'inclusive':>9}  function")
    for name, count in inclusive.most_common(args.top):
        print(f"{100 * count / n:8.1f}%  {name[:120]}")
    print(f"\n{'self':>9}  function")
    for name, count in own.most_common(args.top):
        print(f"{100 * count / n:8.1f}%  {name[:120]}")
    if args.focus:
        print(f"\n{'inclusive':>9}  focus")
        for pattern in args.focus:
            hits = sum(any(pattern in f for f in fs) for fs in frames)
            print(f"{100 * hits / n:8.1f}%  {pattern}")
        hits = sum(any(pat in f for pat in args.focus for f in fs) for fs in frames)
        print(f"{100 * hits / n:8.1f}%  any of the above")
    if args.by_module:
        modules = collections.Counter(module_of(fs) for fs in located)
        print(f"\n{'self':>9}  module (first crates/<crate>/src/<file>.rs frame)")
        for name, count in modules.most_common():
            print(f"{100 * count / n:8.1f}%  {name}")


if __name__ == "__main__":
    main()
