#!/usr/bin/env python3
"""genlink_lint: the repo's determinism & concurrency invariant linter.

The GP learner's contract (ROADMAP, docs/CONCURRENCY.md) is that every
run is bit-identical for a given seed, at any thread count. Most of the
ways to break that are not compile errors — an unordered_map iteration
feeding output, a wall-clock call, a pointer-valued sort key — so this
linter rejects the syntactic forms that historically cause them.

Rules (all diagnostics are `file:line: [rule] message`):

  randomness           rand()/srand()/std::random_device, time()/
                       gettimeofday/localtime/system_clock — i.e. any
                       entropy or wall-clock source — outside
                       src/common/random.*. Seeded streams come from
                       common/random.h; durations use steady_clock
                       (allowed everywhere, it never feeds results).
  unordered-iteration  range-for over a container declared as
                       std::unordered_map/std::unordered_set in the
                       same file. Hash-order iteration feeding output
                       or accumulation is run-to-run nondeterministic
                       (libstdc++ order is stable today, but it is an
                       implementation detail and differs under
                       sanitizers/other stdlibs). Waive with
                       `// lint:ordered -- <reason>` when the loop is
                       provably order-insensitive (pure counting, or
                       results re-sorted afterwards).
  pointer-sort         sort-family comparator lambdas taking pointer
                       parameters and comparing them with </> directly:
                       pointer values are allocation-order, not data.
  raw-mutex            std::mutex / std::shared_mutex /
                       std::condition_variable (& friends) outside
                       src/common/: they carry no thread-safety
                       capability annotations on libstdc++, so guarded
                       state becomes invisible to clang
                       -Wthread-safety. Use the annotated wrappers in
                       common/mutex.h.
  float-accum          `x += ...` on a float/double inside a loop, in
                       the determinism-gated directories (src/eval,
                       src/gp, src/api). Float addition is
                       non-associative; an accumulation whose order
                       depends on scheduling breaks bit-identity.
                       Waive when the loop order is fixed (serial
                       phase, deterministic container).

Waivers — every one requires a reason:

  // lint:allow(<rule>) -- <reason>     on the flagged line or the line
                                        directly above it
  // lint:ordered -- <reason>           sugar for
                                        lint:allow(unordered-iteration)

`--list-waivers` prints every waiver in scope (file:line, rule,
reason) for audit, and exits 0.

Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

Self-tests: tools/genlink_lint_test.py (plain stdlib unittest; also
registered with ctest under the `lint` label).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

RULES = (
    "randomness",
    "unordered-iteration",
    "pointer-sort",
    "raw-mutex",
    "float-accum",
)

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Directories (relative to the scan root, forward slashes) where
# float-accum applies: the layers whose numbers must be bit-identical.
DETERMINISM_GATED_DIRS = ("eval", "gp", "api")

# randomness is not enforced inside the seeded-randomness module itself
# (it is the one place allowed to own entropy policy) …
RANDOMNESS_EXEMPT = re.compile(r"(^|/)common/random\.(h|cc)$")
# … and raw-mutex is not enforced inside common/, where the annotated
# wrappers are implemented in terms of the std primitives.
RAW_MUTEX_EXEMPT = re.compile(r"(^|/)common/")

WAIVER_RE = re.compile(
    r"//\s*lint:(?:allow\((?P<rule>[a-z-]+)\)|(?P<ordered>ordered))"
    r"(?P<rest>.*)$"
)
REASON_RE = re.compile(r"^\s*--\s*(?P<reason>\S.*)$")

RANDOMNESS_RE = re.compile(
    r"""\b(?:
        std::random_device |
        std::mt19937(?:_64)? \s* \w* \s* [({] [^)}]* std::random_device |
        (?<![\w:])rand\s*\( |
        (?<![\w:])srand\s*\( |
        (?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|&)| # time(NULL)-style wall clock
        gettimeofday\s*\( |
        clock_gettime\s*\( |
        (?<![\w:])localtime(?:_r)?\s*\( |
        (?<![\w:])gmtime(?:_r)?\s*\( |
        std::chrono::system_clock |
        high_resolution_clock
    )""",
    re.VERBOSE,
)

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<"
)
# `for (… : expr)` — capture the range expression.
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;:]+:\s*(?P<range>[^)]+)\)")

SORT_CALL_RE = re.compile(
    r"\bstd::(?:stable_)?sort\s*\(|\bstd::(?:min|max)_element\s*\(|"
    r"\bstd::nth_element\s*\(|\bstd::partial_sort\s*\("
)
LAMBDA_PARAMS_RE = re.compile(r"\[[^\]]*\]\s*\((?P<params>[^)]*)\)")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|condition_variable"
    r"(?:_any)?)\b"
)

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:=|\{|;|,)")
ACCUM_RE = re.compile(r"(?<![\w.])(\w+)\s*\+=")
LOOP_OPEN_RE = re.compile(r"\b(?:for|while)\s*\(")


@dataclass
class Diagnostic:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Waiver:
    path: str
    line: int
    rule: str
    reason: str


@dataclass
class LintResult:
    diagnostics: list[Diagnostic] = field(default_factory=list)
    waivers: list[Waiver] = field(default_factory=list)


def strip_strings_and_comments(line: str) -> str:
    """Blanks out string/char literals and the trailing // comment so
    rule regexes never fire on prose. (Block comments spanning lines are
    not handled; the codebase uses // exclusively.)"""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is comment
        if c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("  ")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(" ")
                    i += 1
                    break
                out.append(" ")
                i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def parse_waivers(lines: list[str], path: str) -> tuple[dict[int, set[str]], list[Waiver], list[Diagnostic]]:
    """Returns ({0-based line covered: rules waived}, waivers, syntax errors).

    A waiver covers its own line; a comment-only waiver additionally
    covers the first following non-comment line (so the explanation may
    continue over several comment lines before the code it waives).
    """
    covered: dict[int, set[str]] = {}
    waivers: list[Waiver] = []
    errors: list[Diagnostic] = []
    for idx, line in enumerate(lines):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        rule = m.group("rule") or "unordered-iteration"
        if rule not in RULES:
            errors.append(Diagnostic(
                path, idx + 1, "waiver-syntax",
                f"unknown rule '{rule}' in waiver (rules: {', '.join(RULES)})"))
            continue
        reason_match = REASON_RE.match(m.group("rest"))
        if not reason_match:
            errors.append(Diagnostic(
                path, idx + 1, "waiver-syntax",
                "waiver without a reason; write "
                f"`// lint:allow({rule}) -- <why this is safe>`"))
            continue
        waivers.append(Waiver(path, idx + 1, rule, reason_match.group("reason").strip()))
        covered.setdefault(idx, set()).add(rule)
        if line.lstrip().startswith("//"):  # comment-only: cover next code line
            j = idx + 1
            while j < len(lines) and lines[j].lstrip().startswith("//"):
                j += 1
            if j < len(lines):
                covered.setdefault(j, set()).add(rule)
    return covered, waivers, errors


def unordered_decl_names(code: str) -> set[str]:
    """Names declared as unordered containers on this (statement) line.

    Walks past the balanced template argument list, then parses a
    `name[, name]*` declarator list that must terminate in `;`, `=` or
    `{` on the same line — which keeps function signatures and
    parameter lines (terminating in `(`, `,` or `)`) from leaking their
    identifiers into the per-file container set. Multi-line
    declarations are simply not tracked: the linter is a heuristic and
    prefers misses over false positives.
    """
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        depth, i = 1, m.end()
        while i < len(code) and depth:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        if depth:
            continue  # template args continue on the next line
        tail = code[i:]
        decl = re.match(
            r"[\s&*]*(?:const\s+)?"
            r"(?P<names>[A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*[;={]",
            tail)
        if decl:
            names.update(n.strip() for n in decl.group("names").split(","))
    return names


def in_gated_dir(rel_path: str) -> bool:
    parts = rel_path.replace(os.sep, "/").split("/")
    # Accept both `src/eval/...` and `eval/...` so the tool works whether
    # invoked on the repo root or on src/ directly.
    if parts and parts[0] == "src":
        parts = parts[1:]
    return bool(parts) and parts[0] in DETERMINISM_GATED_DIRS


def lint_file(path: str, rel_path: str, result: LintResult) -> None:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise SystemExit(f"genlink_lint: cannot read {path}: {e}")

    covered, waivers, waiver_errors = parse_waivers(lines, rel_path)
    result.waivers.extend(waivers)
    result.diagnostics.extend(waiver_errors)

    code_lines = [strip_strings_and_comments(l) for l in lines]

    unordered_vars: set[str] = set()
    for code in code_lines:
        unordered_vars.update(unordered_decl_names(code))

    float_vars: set[str] = set()
    for code in code_lines:
        float_vars.update(FLOAT_DECL_RE.findall(code))

    gated = in_gated_dir(rel_path)
    loop_depth_stack: list[bool] = []  # per open brace: opened by a loop?
    pending_loop = False

    def emit(idx: int, rule: str, message: str) -> None:
        if rule in covered.get(idx, ()):  # waived
            return
        result.diagnostics.append(Diagnostic(rel_path, idx + 1, rule, message))

    for idx, code in enumerate(code_lines):
        if not RANDOMNESS_EXEMPT.search(rel_path.replace(os.sep, "/")):
            m = RANDOMNESS_RE.search(code)
            if m:
                emit(idx, "randomness",
                     f"entropy/wall-clock source `{m.group(0).strip()}`; "
                     "use the seeded streams in common/random.h "
                     "(std::chrono::steady_clock is fine for durations)")

        m = RANGE_FOR_RE.search(code)
        if m:
            range_expr = m.group("range")
            range_ids = set(re.findall(r"\b([A-Za-z_]\w*)\b", range_expr))
            hits = range_ids & unordered_vars
            if hits:
                emit(idx, "unordered-iteration",
                     f"range-for over unordered container `{sorted(hits)[0]}`: "
                     "hash-order iteration; sort the keys, use std::map, or "
                     "waive with `// lint:ordered -- <reason>` if "
                     "order-insensitive")

        if SORT_CALL_RE.search(code):
            # The comparator lambda may sit on this or the next few lines.
            window = " ".join(code_lines[idx:idx + 4])
            lm = LAMBDA_PARAMS_RE.search(window)
            if lm and "*" in lm.group("params"):
                params = re.findall(r"(\w+)\s*(?:,|$)", lm.group("params"))
                body = window[lm.end():]
                for p in params:
                    if re.search(rf"(?<![\w.>]){re.escape(p)}\s*[<>]\s*\w", body) or \
                       re.search(rf"\w\s*[<>]\s*{re.escape(p)}(?![\w.])(?!\s*->)", body):
                        emit(idx, "pointer-sort",
                             f"comparator orders pointer `{p}` by its value "
                             "(allocation order, not data); compare the "
                             "pointees or a stable key")
                        break

        if not RAW_MUTEX_EXEMPT.search(rel_path.replace(os.sep, "/")):
            m = RAW_MUTEX_RE.search(code)
            if m:
                emit(idx, "raw-mutex",
                     f"`{m.group(0)}` outside common/ is invisible to "
                     "-Wthread-safety; use the annotated wrappers in "
                     "common/mutex.h (Mutex, MutexLock, CondVar)")

        # float-accum needs loop tracking regardless of gating so the
        # brace bookkeeping stays consistent; only emit when gated.
        if LOOP_OPEN_RE.search(code):
            pending_loop = True
        for c in code:
            if c == "{":
                loop_depth_stack.append(pending_loop)
                pending_loop = False
            elif c == "}":
                if loop_depth_stack:
                    loop_depth_stack.pop()
        if gated and any(loop_depth_stack):
            am = ACCUM_RE.search(code)
            if am and am.group(1) in float_vars:
                emit(idx, "float-accum",
                     f"float accumulation `{am.group(1)} +=` inside a loop in "
                     "a determinism-gated layer; if the iteration order is "
                     "fixed, waive with "
                     "`// lint:allow(float-accum) -- <why order is fixed>`")


def collect_files(paths: list[str]) -> list[tuple[str, str]]:
    """Expands paths to (absolute, display) source-file pairs."""
    out: list[tuple[str, str]] = []
    for p in paths:
        if os.path.isfile(p):
            out.append((p, p))
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(SOURCE_EXTENSIONS):
                        full = os.path.join(root, name)
                        out.append((full, os.path.relpath(full)))
        else:
            raise SystemExit(f"genlink_lint: no such file or directory: {p}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="genlink_lint",
        description="determinism & concurrency invariant linter "
                    "(see module docstring for the rules)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-waivers", action="store_true",
                        help="print every waiver in scope and exit 0")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage error, 0 on --help; keep both.
        return int(e.code or 0)

    result = LintResult()
    try:
        for full, rel in collect_files(args.paths or ["src"]):
            lint_file(full, rel, result)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2

    if args.list_waivers:
        for w in result.waivers:
            print(f"{w.path}:{w.line}: [{w.rule}] {w.reason}")
        print(f"{len(result.waivers)} waiver(s)")
        return 0

    for d in result.diagnostics:
        print(d)
    if result.diagnostics:
        print(f"genlink_lint: {len(result.diagnostics)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
