#!/usr/bin/env python3
"""Fail when library code is reached by no shipped binary.

The shipped binaries are every bench/*.cpp and examples/*.cpp target (one
executable per file, named after it) plus perfbench's socl_perfbench. The
script builds them and the socl_* libraries at -O0 with
-ffunction-sections -fdata-sections, links with -Wl,--gc-sections (so a
function nothing calls is dropped from the binary, and no inlining hides a
caller), then lists the strong text symbols (`nm` type T) in namespace
socl that the libsocl_*.a archives define and no shipped binary keeps.

That list is diffed against unreachable_allowlist.txt beside this script.
An entry there is an oracle: library code a test checks production code
against, kept on purpose. Each line holds one demangled symbol, then
`  # ` and the reason, which names the production code it checks. The
script fails on an unreached symbol the allowlist does not name, and on an
allowlist entry that is no longer unreached (stale).

Only strong symbols count. Weak template and inline instantiations (type
W) differ from one compiler to the next, so header-only inline code and
templates are out of scope, as are internal-linkage (static or anonymous
namespace) functions, which the compiler's unused-function warning covers.

Stdlib Python plus binutils `nm` and `c++filt`. Build trees go under
build-unreachable/ at the repository root; nothing is written elsewhere.
Run from anywhere:

    python3 scripts/unreachable.py

Exit status 0 means the unreached set equals the allowlist.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ALLOWLIST = Path(__file__).resolve().parent / "unreachable_allowlist.txt"
BUILD_ROOT = REPO_ROOT / "build-unreachable"
FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def build(source: Path, out: Path, targets):
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(source), "-B", str(out), *FLAGS]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run(configure)
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "--build", str(out), "-j", jobs, "--target", *targets])


def defined_symbols(path: Path, types):
    """Mangled names of the symbols `path` defines with an nm type in
    `types` (an archive's members are read as one set)."""
    done = subprocess.run(["nm", "--defined-only", str(path)],
                          check=True, capture_output=True, text=True)
    names = set()
    for line in done.stdout.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in types:
            names.add(fields[2])
    return names


def demangle(names):
    done = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                          capture_output=True, text=True)
    return dict(zip(names, done.stdout.splitlines()))


def read_allowlist():
    entries = {}
    for lineno, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        symbol, sep, reason = line.partition("  # ")
        if not sep or not reason.strip():
            sys.exit(f"{ALLOWLIST.name}:{lineno}: entry without a reason")
        entries[symbol.strip()] = reason.strip()
    return entries


def main() -> int:
    shipped = sorted(p.stem for d in ("bench", "examples")
                     for p in (REPO_ROOT / d).glob("*.cpp"))
    libraries = sorted("socl_" + p.parent.name
                       for p in (REPO_ROOT / "src").glob("*/CMakeLists.txt"))
    tree = BUILD_ROOT / "tree"
    perfbench = BUILD_ROOT / "perfbench"
    build(REPO_ROOT, tree, shipped + libraries)
    build(REPO_ROOT / "perfbench", perfbench, ["socl_perfbench"])

    binaries = [tree / d / name for d in ("bench", "examples")
                for name in shipped if (tree / d / name).is_file()]
    binaries.append(perfbench / "socl_perfbench")
    kept = set()
    for binary in binaries:
        kept |= defined_symbols(binary, "TtWwVvuiDdBbRr")

    archives = sorted(tree.rglob("libsocl_*.a"))
    defined = set()
    for archive in archives:
        defined |= defined_symbols(archive, "T")
    names = demangle(sorted(defined - kept))
    unreached = {names[m] for m in names if names[m].startswith("socl::")}

    allowed = read_allowlist()
    new = sorted(unreached - allowed.keys())
    stale = sorted(allowed.keys() - unreached)
    print(f"{len(binaries)} shipped binaries, {len(archives)} archives, "
          f"{len(unreached)} unreached socl:: symbols, "
          f"{len(allowed)} allowlisted")
    for symbol in new:
        print(f"unreached, not allowlisted: {symbol}")
    for symbol in stale:
        print(f"stale allowlist entry (reached or gone): {symbol}")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
