#!/usr/bin/env python3
"""List the library code that no shipped binary reaches, and gate it.

The reachability build compiles every function into its own section and lets
the linker drop the sections nothing references, so a library function whose
symbol is absent from every shipped binary is dead code. The two trees it
reads are built like this in bash (tests off, no optimisation so nothing is
inlined away):

    FLAGS=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0"
           "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
    cmake -S . -B build-reach/main "${FLAGS[@]}" -DFTCF_BUILD_TESTS=OFF
    cmake --build build-reach/main -j 4
    cmake -S perfbench -B build-reach/perfbench "${FLAGS[@]}"
    cmake --build build-reach/perfbench --target perfbench -j 4

    python3 tools/reachability.py [BUILD_ROOT]    # default: build-reach

The shipped binaries are every executable in the bench/, examples/ and tools/
directories of the main tree plus perfbench. The script compares the text
symbols (nm types T/t/W/w, demangled, deduplicated by name) of the static
libraries against those of the binaries and prints

  * the unreachable share: bytes of unreachable symbols that mention `ftcf::`
    over bytes of all library symbols that do (1 KB = 1024 bytes);
  * the unreachable bytes per module (library);
  * every unreachable function whose demangled name starts with `ftcf::` and
    lies outside an anonymous namespace: the gated list.

Each gated function must match an entry of tools/reachability_allowlist.txt;
every entry must match at least one gated function. Exit status: 0 when both
hold, 1 otherwise (an unlisted unreachable function or a stale entry), 2 when
the build trees are missing.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(REPO, "tools", "reachability_allowlist.txt")
# The reasons an allowlist entry may give (explained in the allowlist).
REASONS = ("seam", "oracle", "accessor")
TEXT_TYPES = {"T", "t", "W", "w"}


def text_symbols(path):
    """{demangled name: size} of the defined text symbols of one file."""
    out = subprocess.run(["nm", "-S", "--defined-only", "-C", path],
                         check=True, capture_output=True, text=True).stdout
    symbols = {}
    for line in out.splitlines():
        fields = line.split(" ", 3)
        if len(fields) != 4 or fields[2] not in TEXT_TYPES:
            continue
        size = int(fields[1], 16)
        symbols[fields[3]] = max(symbols.get(fields[3], 0), size)
    return symbols


def executables(directory):
    if not os.path.isdir(directory):
        return []
    return sorted(
        os.path.join(directory, name) for name in os.listdir(directory)
        if os.path.isfile(os.path.join(directory, name))
        and os.access(os.path.join(directory, name), os.X_OK))


def read_allowlist(path):
    entries = []
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            reason, _, prefix = line.partition(" ")
            prefix = prefix.strip()
            if reason not in REASONS or not prefix.startswith("ftcf::"):
                sys.exit(f"{path}:{number}: expected '<{'|'.join(REASONS)}> "
                         f"ftcf::<name prefix>', got: {line}")
            entries.append((reason, prefix))
    return entries


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(REPO, "build-reach")
    main_tree = os.path.join(root, "main")
    libraries = sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(os.path.join(main_tree, "src"))
        for name in names if name.endswith(".a"))
    binaries = [b for d in ("bench", "examples", "tools")
                for b in executables(os.path.join(main_tree, d))]
    perfbench = os.path.join(root, "perfbench", "perfbench")
    if not libraries or not binaries or not os.path.isfile(perfbench):
        print(f"error: no reachability build under {root} (see the usage at "
              "the top of tools/reachability.py)", file=sys.stderr)
        return 2
    binaries.append(perfbench)

    # name -> (size, module); a name defined by several libraries (inline
    # and template code) belongs to the first library, in path order.
    library = {}
    for lib in libraries:
        module = os.path.basename(lib)[len("libftcf_"):-len(".a")]
        for name, size in text_symbols(lib).items():
            if "ftcf::" not in name:
                continue
            seen = library.get(name)
            library[name] = (max(size, seen[0]), seen[1]) if seen else (
                size, module)
    reached = set()
    for binary in binaries:
        reached.update(text_symbols(binary))

    unreachable = {n: v for n, v in library.items() if n not in reached}
    total = sum(size for size, _ in library.values())
    dead = sum(size for size, _ in unreachable.values())
    print(f"reachability: {len(libraries)} libraries, {len(binaries)} "
          "shipped binaries")
    print(f"unreachable ftcf:: text: {dead / 1024:.1f} of {total / 1024:.1f} "
          f"KB ({100.0 * dead / total:.2f} %)")
    per_module = {}
    for size, module in library.values():
        per_module.setdefault(module, [0, 0, 0])[0] += size
    for size, module in unreachable.values():
        per_module[module][1] += size
        per_module[module][2] += 1
    print(f"  {'module':<12} {'unreachable KB':>15} {'of KB':>8} "
          f"{'symbols':>8}")
    for module, (all_bytes, dead_bytes, count) in sorted(
            per_module.items(), key=lambda kv: (-kv[1][1], kv[0])):
        print(f"  {module:<12} {dead_bytes / 1024:>15.1f} "
              f"{all_bytes / 1024:>8.1f} {count:>8}")

    gated = sorted((module, name) for name, (_, module) in unreachable.items()
                   if name.startswith("ftcf::")
                   and "(anonymous namespace)" not in name)
    entries = read_allowlist(ALLOWLIST)
    used = set()
    unlisted = []
    print(f"\nunreachable ftcf:: functions: {len(gated)}")
    for module, name in gated:
        match = next((e for e in entries if name.startswith(e[1])), None)
        if match:
            used.add(match)
            print(f"  [{module}] {name}  (allowlisted: {match[0]})")
        else:
            unlisted.append(name)
            print(f"  [{module}] {name}  NOT ALLOWLISTED")
    stale = [e for e in entries if e not in used]
    for reason, prefix in stale:
        state = ("reachable" if any(n.startswith(prefix) for n in library)
                 else "gone")
        print(f"stale allowlist entry ({state}): {reason} {prefix}")
    print(f"allowlist: {len(entries)} entries; {len(unlisted)} unlisted "
          f"unreachable function(s), {len(stale)} stale entr"
          f"{'y' if len(stale) == 1 else 'ies'}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
