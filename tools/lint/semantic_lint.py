#!/usr/bin/env python3
"""Semantic (call-graph-aware) determinism and hot-path analyzer.

The determinism lint (determinism_lint.py) is a line-oriented scanner: it
sees one line at a time and knows nothing about who calls whom. This tool
builds a lightweight semantic model of the C++ tree — namespaces, classes
with their fields (mutable / GUARDED_BY / atomic), function definitions
with bodies, and a cross-translation-unit call graph with type-based
receiver resolution — and checks *flow* properties that a grep cannot:

  sem-hot-alloc       No allocation (new / malloc / make_unique /
                      make_shared / an owning-container local) in any
                      function reachable from a hot entry point
                      (Engine::Send and Fib::Lookup by default). The
                      per-packet steady state is allocation-free by
                      contract; a helper three calls deep still breaks
                      it. Container *growth* on recycled members is
                      deliberately not flagged: steady-state appends into
                      kept capacity are the repo's pattern, and the
                      zero-allocation fast-path tests pin it.
  sem-unordered-flow  No unordered-container iteration in any function
                      reachable from report/trace-producing code (the
                      output dirs), even when the function itself lives
                      in a "safe" directory. Hash-order reaching a report
                      through two helper calls is still hash-order in the
                      output.
  sem-const-mutation  A const member function that writes a `mutable`
                      field must hold a lock (an RAII lock local declared
                      before the write) — unless the field is atomic,
                      GUARDED_BY-annotated (clang TSA already owns it),
                      or an aggregate whose members are all atomic (the
                      stat-shard shape).
  sem-nondet-reach    No wall-clock or raw-RNG call in any function
                      reachable from a deterministic entry point (probe
                      injection, convergence). The determinism lint bans
                      these tree-wide; this rule additionally prints the
                      call chain that makes a violation *reachable*, so a
                      future relaxation of the flat ban cannot silently
                      put nondeterminism back on the replayable paths.

The translation-unit list comes from a compile_commands.json when one is
given (or found in ./build); headers and any unlisted sources are picked
up by the same directory scan the determinism lint uses, so the tool
works on a pristine checkout too.

The analyzer is deliberately self-contained (no libclang — the analysis
container has no clang at all): a comment/string-stripping pass keeps
byte offsets stable, a brace-tracking scope machine recovers namespaces,
classes, fields and function bodies, and receivers are resolved through
declared types (params, locals, fields, smart-pointer payloads).
Unresolvable calls (virtual through unknown types, function pointers)
drop edges — the rules err toward silence, and the fixture suite pins
the shapes that must keep working.

Every hot_entries, hot_alloc_exempt and deterministic_entries spec of
the config must name at least one function of the linted tree. A spec
that names none (a root deleted or renamed since the config was
written) would silently switch its rule off for that root, so it is
reported as a config error (exit 2). Runs over explicit paths skip this
check: a root outside them is not stale.

Suppressions use the determinism-lint syntax and rule ids above:

  ... code ...  // lint:allow(sem-hot-alloc): reason
  // lint:allow-next-line(sem-const-mutation): reason
  // lint:allow-file(sem-unordered-flow): reason

Exit status: 0 = clean, 1 = findings, 2 = usage or config error
(including a root spec that matches no function).
"""

from __future__ import annotations

import argparse
import bisect
import json
import re
import sys
from pathlib import Path

SOURCE_EXTENSIONS = {".cpp", ".cc", ".cxx", ".h", ".hpp"}
SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
EXCLUDED_PARTS = {"fixtures", "build", "build-tsan"}

DEFAULT_CONFIG = {
    # Suffix-matched against fully qualified function names.
    "hot_entries": [
        "sim::Engine::Send",
        "routing::Fib::Lookup",
    ],
    # Functions allowed to allocate although hot-reachable. Fib::Seal is
    # the documented lazy cold path: the first Lookup pays one build.
    "hot_alloc_exempt": [
        "routing::Fib::Seal",
    ],
    "deterministic_entries": [
        "sim::Engine::Send",
        "sim::Network::OnLinkStateChange",
        "sim::Network::ConvergeFull",
        # The campaign pipeline (Run reaches the probing loop and the
        # replay reduce): the byte-identity contract (docs/scaling.md)
        # dies the moment either can reach a clock or an unseeded RNG.
        "campaign::Campaign::Run",
        "campaign::CompactTraceLog::Append",
        "campaign::CompactTraceLog::Inflate",
    ],
    # Directories whose functions feed report/trace output.
    "output_dirs": ["src/analysis", "src/io", "src/fingerprint", "tools"],
    "unordered_flow_exempt": [],
    # The seeded-RNG home may name the raw engines it wraps.
    "nondet_exempt_files": ["src/netbase/rng.h"],
}

# Config keys whose specs name functions; each spec must match one.
ROOT_SPEC_KEYS = (
    "hot_entries",
    "hot_alloc_exempt",
    "deterministic_entries",
)

RULES = (
    "sem-hot-alloc",
    "sem-unordered-flow",
    "sem-const-mutation",
    "sem-nondet-reach",
)

ALLOW_LINE = re.compile(r"//\s*lint:allow\(([\w,\s-]+)\)")
ALLOW_NEXT = re.compile(r"//\s*lint:allow-next-line\(([\w,\s-]+)\)")
ALLOW_FILE = re.compile(r"//\s*lint:allow-file\(([\w,\s-]+)\)")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "new", "delete", "case", "default", "throw", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "alignof",
    "alignas", "decltype", "static_assert", "noexcept", "co_await",
    "co_return", "co_yield", "assert", "defined",
}

OWNING_CONTAINERS = (
    "vector", "string", "deque", "list", "map", "set", "unordered_map",
    "unordered_set", "multimap", "multiset", "function", "basic_string",
)

ALLOC_CALL = re.compile(
    r"\bnew\b(?!\s*\()"  # placement new is not a fresh allocation
    r"|\b(?:std::)?(?:malloc|calloc|realloc)\s*\("
    r"|\b(?:std::)?make_(?:unique|shared)\s*<"
)
OWNING_LOCAL = re.compile(
    r"\b(?:std::)?(?:" + "|".join(OWNING_CONTAINERS) + r")\s*<[^;()]*?>\s+"
    r"(\w+)\s*[;={(]"
    r"|\b(?:std::)?string\s+(\w+)\s*[;={(]"
)
WALL_CLOCK = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\b(gettimeofday|clock_gettime|localtime|gmtime|timespec_get)\s*\("
    r"|\bstd::time\s*\(|[^:\w]time\s*\(\s*(nullptr|NULL|0)?\s*\)"
)
RAW_RNG = re.compile(
    r"std::random_device|\bstd::mt19937(_64)?\b"
    r"|[^:.\w](rand|srand|random|srandom|drand48)\s*\("
)
RANGE_FOR = re.compile(r"\bfor\s*\([^();]*?:\s*([^()]+?)\)")
UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)\s*[;={(]"
)
LOCK_DECL = re.compile(
    r"\b(?:\w+::)*(MutexLock|RoleLock|ReaderLock|WriterLock|lock_guard|"
    r"scoped_lock|unique_lock|shared_lock)\b[^;]{0,120}?\("
)
MUTATING_METHODS = (
    "push_back", "emplace_back", "pop_back", "resize", "reserve", "clear",
    "insert", "emplace", "erase", "assign", "store", "swap", "append",
)
CALL_SITE = re.compile(
    r"(?:(\w+)\s*(\.|->)\s*)?((?:\w+::)*~?\w+)\s*\("
)
LOCAL_DECL = re.compile(
    r"\b((?:const\s+)?(?:\w+::)*\w+(?:<[^;<>]*(?:<[^<>]*>)?[^;<>]*>)?)"
    r"\s*[&*]*\s+(\w+)\s*(?:=|\{|\(|;)"
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_text(text: str) -> str:
    """Blanks comments, string/char contents and preprocessor lines.

    The result has identical length and newline positions, so byte
    offsets and line numbers computed on it map 1:1 onto the original.
    """
    out = list(text)
    i = 0
    n = len(text)
    at_line_start = True

    def blank(a: int, b: int):
        for k in range(a, min(b, n)):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        ch = text[i]
        if at_line_start and ch in " \t":
            i += 1
            continue
        if at_line_start and ch == "#":
            # Preprocessor line (with continuations).
            start = i
            while i < n:
                if text[i] == "\n" and text[i - 1] != "\\":
                    break
                i += 1
            blank(start, i)
            continue
        at_line_start = ch == "\n"
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            start = i
            while i < n and text[i] != "\n":
                i += 1
            blank(start, i)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = i
            end = text.find("*/", i + 2)
            i = n if end == -1 else end + 2
            blank(start, i)
            continue
        if ch == "R" and text.startswith('R"', i):
            # Raw string: R"delim( ... )delim"
            paren = text.find("(", i + 2)
            if paren != -1:
                delim = text[i + 2 : paren]
                close = text.find(")" + delim + '"', paren)
                end = n if close == -1 else close + len(delim) + 2
                blank(i, end)
                i = end
                continue
        if ch in "\"'":
            quote = ch
            start = i
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == "\\" else 1
            i = min(i + 1, n)
            blank(start + 1, i - 1)
            continue
        i += 1
    return "".join(out)


class Field:
    def __init__(self, name: str, type_text: str, is_mutable: bool,
                 guarded: bool):
        self.name = name
        self.type_text = type_text
        self.is_mutable = is_mutable
        self.guarded = guarded
        self.atomic = "atomic" in type_text


class ClassInfo:
    def __init__(self, qname: str):
        self.qname = qname
        self.fields: dict[str, Field] = {}

    def all_fields_atomic(self) -> bool:
        return bool(self.fields) and all(
            f.atomic for f in self.fields.values()
        )


class FuncDef:
    def __init__(self, qname: str, rel: str, line: int, body: tuple[int, int],
                 is_const: bool, class_qname: str | None,
                 params: dict[str, str]):
        self.qname = qname
        self.rel = rel
        self.line = line
        self.body = body  # (start, end) offsets into the stripped text
        self.is_const = is_const
        self.class_qname = class_qname
        self.params = params  # name -> type text


class FileInfo:
    def __init__(self, rel: str, text: str):
        self.rel = rel
        self.text = text
        self.stripped = strip_text(text)
        self.raw_lines = text.splitlines()
        self.line_starts = [0]
        for k, ch in enumerate(text):
            if ch == "\n":
                self.line_starts.append(k + 1)
        self.file_allowed: set[str] = set()
        for line in self.raw_lines:
            for match in ALLOW_FILE.finditer(line):
                self.file_allowed |= {
                    r.strip() for r in match.group(1).split(",") if r.strip()
                }

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def allowed_at(self, line: int) -> set[str]:
        allowed = set(self.file_allowed)
        for source_line, pattern in (
            (line, ALLOW_LINE), (line - 1, ALLOW_NEXT)
        ):
            if 1 <= source_line <= len(self.raw_lines):
                for match in pattern.finditer(
                    self.raw_lines[source_line - 1]
                ):
                    allowed |= {
                        r.strip()
                        for r in match.group(1).split(",")
                        if r.strip()
                    }
        return allowed


class Model:
    """The semantic model of the tree: types, functions, call graph."""

    def __init__(self):
        self.files: dict[str, FileInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.class_by_name: dict[str, list[str]] = {}
        self.functions: dict[str, list[FuncDef]] = {}
        self.func_by_name: dict[str, list[str]] = {}
        self.calls: dict[str, set[str]] = {}
        self.unordered_names: set[str] = set()

    # -- construction ---------------------------------------------------

    def add_file(self, rel: str, text: str):
        info = FileInfo(rel, text)
        self.files[rel] = info
        self._parse_scopes(info)
        for match in UNORDERED_DECL.finditer(info.stripped):
            self.unordered_names.add(match.group(1))

    def _class_at(self, qname: str) -> ClassInfo:
        if qname not in self.classes:
            self.classes[qname] = ClassInfo(qname)
            base = qname.rsplit("::", 1)[-1]
            self.class_by_name.setdefault(base, []).append(qname)
        return self.classes[qname]

    def _parse_scopes(self, info: FileInfo):
        """The brace-tracking scope machine.

        Walks the stripped text once, classifying every `{` by the
        statement that precedes it (namespace / class / enum / function
        / plain block) and flushing field declarations at each `;` that
        ends a statement directly inside a class body.
        """
        text = info.stripped
        n = len(text)
        # Each scope: (kind, name) with kind in
        # {namespace, class, enum, function, block}.
        scopes: list[tuple[str, str]] = []
        stmt_start = 0
        i = 0
        paren_depth = 0
        while i < n:
            ch = text[i]
            if ch == "(":
                paren_depth += 1
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
            elif ch == "{" and paren_depth == 0:
                stmt = text[stmt_start:i]
                kind, name = self._classify_brace(stmt, scopes)
                if kind == "function":
                    end = self._matching_brace(text, i)
                    self._record_function(info, stmt, i, end, scopes)
                    # The whole body was consumed; the scope stack is
                    # unchanged.
                    i = end + 1
                    stmt_start = i
                    continue
                if (
                    kind == "block"
                    and scopes
                    and scopes[-1][0] == "class"
                ):
                    # A default-member-initializer brace
                    # (`std::atomic<bool> sealed_{false};`): skip it but
                    # keep accumulating the declaration statement so the
                    # field flushes intact at the `;`.
                    i = self._matching_brace(text, i) + 1
                    continue
                scopes.append((kind, name))
                stmt_start = i + 1
            elif ch == "}" and paren_depth == 0:
                if scopes:
                    scopes.pop()
                stmt_start = i + 1
            elif ch == ";" and paren_depth == 0:
                stmt = text[stmt_start:i].strip()
                if stmt and scopes and scopes[-1][0] == "class":
                    self._record_field(stmt, scopes)
                stmt_start = i + 1
            i += 1

    @staticmethod
    def _matching_brace(text: str, open_idx: int) -> int:
        depth = 0
        for k in range(open_idx, len(text)):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    return k
        return len(text) - 1

    _CLASS_HEAD = re.compile(
        r"\b(?:class|struct)\b(?!\s*;)(?![^;{]*[;=])"
    )
    _FUNC_NAME = re.compile(
        r"((?:\w+::)*(?:~?\w+|operator\s*[^\s(]{1,3}))\s*$"
    )

    def _classify_brace(
        self, stmt: str, scopes: list[tuple[str, str]]
    ) -> tuple[str, str]:
        s = stmt.strip()
        # Specifiers that precede a constructor/function name and would
        # otherwise shadow it (the paren of `explicit(false)` is not the
        # parameter list).
        s = re.sub(r"\bexplicit\s*\(\s*(?:true|false)\s*\)", " ", s)
        s = re.sub(r"\b(explicit|virtual|friend)\b", " ", s).strip()
        ns = re.search(r"\bnamespace\s+((?:\w+::)*\w+)\s*$", s)
        if ns:
            return "namespace", ns.group(1)
        if re.search(r"\bnamespace\s*$", s):
            return "namespace", ""
        if re.search(r"\benum\b", s):
            return "enum", ""
        head = self._CLASS_HEAD.search(s)
        if head is not None and "(" not in s[: head.start()]:
            # Name: the identifier before any base clause / `final`.
            tail = s[head.end():]
            tail = re.split(r":(?!:)", tail, maxsplit=1)[0]
            tail = re.sub(r"\bfinal\b", "", tail)
            words = re.findall(r"\w+", tail)
            # Skip attribute-macro args: take the LAST identifier, which
            # is the class name in `class CAPABILITY("x") Name`.
            if words:
                return "class", words[-1]
            return "block", ""
        # Function definition: `name(params) quals [: init-list]`, not a
        # control statement and not an `=`-initializer.
        if "(" in s:
            paren = s.index("(")
            name_match = self._FUNC_NAME.search(s[:paren].rstrip())
            if name_match:
                name = name_match.group(1)
                base = name.rsplit("::", 1)[-1]
                if base not in KEYWORDS and not re.search(
                    r"=\s*$", s
                ):
                    return "function", name
        return "block", ""

    @staticmethod
    def _split_params(params_text: str) -> dict[str, str]:
        params: dict[str, str] = {}
        depth = 0
        part_start = 0
        parts: list[str] = []
        for k, ch in enumerate(params_text):
            if ch in "<([":
                depth += 1
            elif ch in ">)]":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(params_text[part_start:k])
                part_start = k + 1
        parts.append(params_text[part_start:])
        for part in parts:
            part = part.split("=", 1)[0].strip()
            m = re.search(r"([\w:<>,\s]+?)\s*[&*]*\s*(\w+)\s*$", part)
            if m and m.group(2) not in KEYWORDS:
                params[m.group(2)] = m.group(1)
        return params

    def _record_function(
        self,
        info: FileInfo,
        stmt: str,
        body_open: int,
        body_close: int,
        scopes: list[tuple[str, str]],
    ):
        s = stmt.strip()
        # Drop a constructor init-list: everything after the last `)` up
        # to a top-level `:` belongs to the header, the rest is inits.
        header = s
        init = re.search(r"\)\s*[^:]*?:(?!:)", s)
        if init:
            header = s[: s.rindex(")", 0, init.end()) + 1]
        paren = header.index("(")
        close = self._find_close_paren(header, paren)
        name = self._FUNC_NAME.search(header[:paren].rstrip())
        if not name:
            return
        quals = header[close + 1 :]
        is_const = re.search(r"\bconst\b", quals) is not None
        params = self._split_params(header[paren + 1 : close])

        ns_parts = [n for k, n in scopes if k == "namespace" and n]
        class_parts = [n for k, n in scopes if k == "class" and n]
        fn = name.group(1)
        class_qname = None
        if class_parts:
            class_qname = "::".join(ns_parts + class_parts)
        elif "::" in fn:
            # Out-of-line member definition: Class::Method. Resolve the
            # qualifier against known classes (suffix match).
            qual = fn.rsplit("::", 1)[0]
            resolved = self.resolve_class(qual, ns_parts)
            if resolved:
                class_qname = resolved
        if class_qname and "::" not in fn:
            qname = class_qname + "::" + fn
        elif class_qname:
            qname = class_qname + "::" + fn.rsplit("::", 1)[-1]
        else:
            qname = "::".join(ns_parts + [fn]) if ns_parts else fn

        func = FuncDef(
            qname,
            info.rel,
            info.line_of(body_open),
            (body_open + 1, body_close),
            is_const,
            class_qname,
            params,
        )
        self.functions.setdefault(qname, []).append(func)
        base = qname.rsplit("::", 1)[-1]
        self.func_by_name.setdefault(base, []).append(qname)

    @staticmethod
    def _find_close_paren(text: str, open_idx: int) -> int:
        depth = 0
        for k in range(open_idx, len(text)):
            if text[k] == "(":
                depth += 1
            elif text[k] == ")":
                depth -= 1
                if depth == 0:
                    return k
        return len(text) - 1

    def _record_field(self, stmt: str, scopes: list[tuple[str, str]]):
        ns_parts = [n for k, n in scopes if k == "namespace" and n]
        class_parts = [n for k, n in scopes if k == "class" and n]
        if not class_parts:
            return
        qname = "::".join(ns_parts + class_parts)
        s = re.sub(r"\b(public|private|protected)\s*:", "", stmt).strip()
        if re.match(
            r"(using|typedef|friend|static_assert|template|static)\b", s
        ):
            return
        guarded = "GUARDED_BY" in s or "PT_GUARDED_BY" in s
        is_mutable = re.match(r"\s*mutable\b", s) is not None
        decl = re.sub(r"\b(GUARDED_BY|PT_GUARDED_BY)\s*\([^)]*\)", "", s)
        decl = decl.split("=", 1)[0].strip()
        decl = re.sub(r"\{.*\}\s*$", "", decl, flags=re.S).strip()
        if not decl or "(" in decl:
            # A `(` that survives the annotation/initializer strip means
            # a method or operator declaration, not a field.
            return
        m = re.search(r"([\w:<>,\s&*\[\]]+?)\s*[&*]*\s*(\w+)\s*$", decl)
        if not m:
            return
        name, type_text = m.group(2), m.group(1).strip()
        if (
            name in KEYWORDS
            or name in ("const", "override", "final", "noexcept", "delete",
                        "default")
            or not type_text
        ):
            return
        info = self._class_at(qname)
        info.fields[name] = Field(name, type_text, is_mutable, guarded)

    # -- resolution -----------------------------------------------------

    def resolve_class(
        self, name: str, ns_hint: list[str] | None = None
    ) -> str | None:
        """Resolves a (possibly partial) class name to a known qname."""
        name = name.strip()
        if name in self.classes:
            return name
        base = name.rsplit("::", 1)[-1]
        candidates = [
            q
            for q in self.class_by_name.get(base, [])
            if q == name or q.endswith("::" + name)
        ]
        if not candidates:
            candidates = self.class_by_name.get(base, [])
        if len(candidates) == 1:
            return candidates[0]
        if candidates and ns_hint:
            prefix = "::".join(ns_hint)
            for q in candidates:
                if q.startswith(prefix + "::"):
                    return q
        return None

    @staticmethod
    def _payload_type(type_text: str) -> str:
        """unique_ptr<T>/shared_ptr<T>/array<T, N> -> T, else itself."""
        m = re.search(
            r"\b(?:unique_ptr|shared_ptr|array|optional)\s*<\s*"
            r"((?:\w+::)*\w+)",
            type_text,
        )
        return m.group(1) if m else type_text

    def _type_to_class(self, type_text: str) -> str | None:
        cleaned = re.sub(r"\b(const|mutable|struct|class)\b", "",
                        self._payload_type(type_text))
        cleaned = cleaned.split("<", 1)[0].strip().strip("&* ")
        if not cleaned:
            return None
        return self.resolve_class(cleaned)

    def _resolve_call(
        self, func: FuncDef, receiver: str | None, callee: str,
        locals_map: dict[str, str],
    ) -> str | None:
        base = callee.rsplit("::", 1)[-1]
        if base in KEYWORDS or base.startswith("~"):
            return None
        if "::" in callee:
            qual = callee.rsplit("::", 1)[0]
            cls = self.resolve_class(qual)
            if cls and cls + "::" + base in self.functions:
                return cls + "::" + base
            for q in self.func_by_name.get(base, []):
                if q == callee or q.endswith("::" + callee):
                    return q
            return None
        if receiver:
            type_text = None
            if receiver == "this" and func.class_qname:
                type_text = func.class_qname
            else:
                type_text = locals_map.get(receiver) or func.params.get(
                    receiver
                )
                if type_text is None and func.class_qname:
                    cls_info = self.classes.get(func.class_qname)
                    if cls_info and receiver in cls_info.fields:
                        type_text = cls_info.fields[receiver].type_text
            if type_text is None:
                return None
            cls = self._type_to_class(type_text)
            if cls and cls + "::" + base in self.functions:
                return cls + "::" + base
            return None
        # Bare call: same class, then same namespace, then unique global.
        # An out-of-line member parsed before its class (a .cpp sorts
        # before its header) has no class_qname; its qname names it.
        cls = func.class_qname
        scope = func.qname.rpartition("::")[0]
        if cls is None and scope in self.classes:
            cls = scope
        if cls and cls + "::" + base in self.functions:
            return cls + "::" + base
        candidates = self.func_by_name.get(base, [])
        if func.qname.count("::"):
            ns = func.qname.rsplit("::", 2)[0]
            for q in candidates:
                if q == ns + "::" + base:
                    return q
        if len(candidates) == 1:
            return candidates[0]
        return None

    def build_call_graph(self):
        for defs in self.functions.values():
            for func in defs:
                info = self.files[func.rel]
                body = info.stripped[func.body[0] : func.body[1]]
                locals_map: dict[str, str] = {}
                for m in LOCAL_DECL.finditer(body):
                    type_text, name = m.group(1), m.group(2)
                    head = type_text.split("<", 1)[0].strip()
                    head_base = head.rsplit("::", 1)[-1]
                    if head_base in KEYWORDS or head_base in (
                        "return", "auto", "co_yield", "throw"
                    ):
                        continue
                    locals_map.setdefault(name, type_text)
                func.locals_map = locals_map
                edges = self.calls.setdefault(func.qname, set())
                for m in CALL_SITE.finditer(body):
                    receiver, _, callee = m.group(1), m.group(2), m.group(3)
                    target = self._resolve_call(
                        func, receiver, callee, locals_map
                    )
                    if target and target != func.qname:
                        edges.add(target)

    # -- queries --------------------------------------------------------

    def match_entries(self, specs: list[str]) -> dict[str, str]:
        """qname -> matched spec, for every function a spec names."""
        matched: dict[str, str] = {}
        for qname in self.functions:
            for spec in specs:
                if qname == spec or qname.endswith("::" + spec):
                    matched[qname] = spec
        return matched

    def reachable_from(
        self, roots: dict[str, str]
    ) -> dict[str, list[str]]:
        """BFS closure: qname -> call chain (root, ..., qname)."""
        chains: dict[str, list[str]] = {
            q: [q] for q in roots
        }
        frontier = list(roots)
        while frontier:
            nxt: list[str] = []
            for q in frontier:
                for callee in sorted(self.calls.get(q, ())):
                    if callee not in chains:
                        chains[callee] = chains[q] + [callee]
                        nxt.append(callee)
            frontier = nxt
        return chains


def fmt_chain(chain: list[str]) -> str:
    names = [q.split("::")[-2] + "::" + q.split("::")[-1]
             if q.count("::") >= 2 else q for q in chain]
    return " -> ".join(names)


def matches_any(qname: str, specs: list[str]) -> bool:
    return any(
        qname == s or qname.endswith("::" + s) for s in specs
    )


class Analyzer:
    def __init__(self, model: Model, config: dict):
        self.model = model
        self.config = config
        self.findings: list[Finding] = []

    def report(self, rel: str, offset: int, rule: str, message: str):
        info = self.model.files[rel]
        line = info.line_of(offset)
        if rule in info.allowed_at(line):
            return
        self.findings.append(Finding(rel, line, rule, message))

    def run(self) -> list[Finding]:
        self.check_hot_alloc()
        self.check_unordered_flow()
        self.check_const_mutation()
        self.check_nondet_reach()
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    def unmatched_specs(self) -> list[str]:
        """One message per root or exemption spec that names no function
        of the model: a stale spec turns its rule off without a word."""
        messages = []
        for key in ROOT_SPEC_KEYS:
            for spec in self.config.get(key, []):
                if not self.model.match_entries([spec]):
                    messages.append(
                        f"{key} spec '{spec}' matches no function"
                    )
        return messages

    def _each_reachable_func(self, chains: dict[str, list[str]]):
        for qname, chain in sorted(chains.items()):
            for func in self.model.functions[qname]:
                yield qname, chain, func

    def check_hot_alloc(self):
        roots = self.model.match_entries(self.config["hot_entries"])
        chains = self.model.reachable_from(roots)
        exempt = self.config.get("hot_alloc_exempt", [])
        for qname, chain, func in self._each_reachable_func(chains):
            if matches_any(qname, exempt):
                continue
            info = self.model.files[func.rel]
            body = info.stripped[func.body[0] : func.body[1]]
            for m in ALLOC_CALL.finditer(body):
                self.report(
                    func.rel,
                    func.body[0] + m.start(),
                    "sem-hot-alloc",
                    f"allocation in hot-reachable '{qname}' "
                    f"(reachable via {fmt_chain(chain)}); the per-packet "
                    "steady state is allocation-free by contract",
                )
            for m in OWNING_LOCAL.finditer(body):
                self.report(
                    func.rel,
                    func.body[0] + m.start(),
                    "sem-hot-alloc",
                    "owning-container local "
                    f"'{m.group(1) or m.group(2)}' in hot-reachable "
                    f"'{qname}' (via {fmt_chain(chain)}); hoist the "
                    "buffer into a caller-owned scratch",
                )

    def check_unordered_flow(self):
        output_dirs = tuple(self.config["output_dirs"])
        roots = {
            qname: qname
            for qname, defs in self.model.functions.items()
            if any(
                d.rel == od or d.rel.startswith(od + "/")
                for d in defs
                for od in output_dirs
            )
        }
        chains = self.model.reachable_from(roots)
        exempt = self.config.get("unordered_flow_exempt", [])
        unordered_names = self.model.unordered_names
        for qname, chain, func in self._each_reachable_func(chains):
            if matches_any(qname, exempt):
                continue
            info = self.model.files[func.rel]
            body = info.stripped[func.body[0] : func.body[1]]
            for m in RANGE_FOR.finditer(body):
                expr = m.group(1).strip()
                tail = re.split(r"[.\->\s]+", expr)[-1]
                local_type = getattr(func, "locals_map", {}).get(tail, "")
                field_type = ""
                if func.class_qname:
                    cls = self.model.classes.get(func.class_qname)
                    if cls and tail in cls.fields:
                        field_type = cls.fields[tail].type_text
                if (
                    "unordered" in expr
                    or "unordered" in local_type
                    or "unordered" in field_type
                    or tail in unordered_names
                ):
                    via = (
                        ""
                        if len(chain) == 1
                        else f" (feeds output via {fmt_chain(chain)})"
                    )
                    self.report(
                        func.rel,
                        func.body[0] + m.start(),
                        "sem-unordered-flow",
                        f"iterating '{expr}' (unordered container) on an "
                        f"output-reachable path{via}; copy into a sorted "
                        "sequence first",
                    )

    def check_const_mutation(self):
        for qname, defs in sorted(self.model.functions.items()):
            for func in defs:
                if not func.is_const or not func.class_qname:
                    continue
                cls = self.model.classes.get(func.class_qname)
                if cls is None:
                    continue
                info = self.model.files[func.rel]
                body = info.stripped[func.body[0] : func.body[1]]
                lock = LOCK_DECL.search(body)
                lock_at = lock.start() if lock else None
                for name, field in sorted(cls.fields.items()):
                    if not field.is_mutable or field.atomic or field.guarded:
                        continue
                    payload = self.model._type_to_class(field.type_text)
                    if payload:
                        payload_info = self.model.classes.get(payload)
                        if payload_info and payload_info.all_fields_atomic():
                            continue  # the stat-shard shape
                    for m in re.finditer(
                        r"\b"
                        + re.escape(name)
                        + r"\s*(?:=(?!=)|\+=|-=|\*=|/=|\|=|&=|\^=|<<=|>>="
                        r"|\+\+|--|\.\s*(?:"
                        + "|".join(MUTATING_METHODS)
                        + r")\s*\()",
                        body,
                    ):
                        if lock_at is not None and lock_at < m.start():
                            continue
                        self.report(
                            func.rel,
                            func.body[0] + m.start(),
                            "sem-const-mutation",
                            f"const method '{qname}' writes mutable field "
                            f"'{name}' without holding a lock (no RAII "
                            "lock local precedes the write); guard it, "
                            "make it atomic, or annotate GUARDED_BY",
                        )

    def check_nondet_reach(self):
        roots = self.model.match_entries(
            self.config["deterministic_entries"]
        )
        chains = self.model.reachable_from(roots)
        exempt_files = set(self.config.get("nondet_exempt_files", []))
        for qname, chain, func in self._each_reachable_func(chains):
            if func.rel in exempt_files:
                continue
            info = self.model.files[func.rel]
            body = info.stripped[func.body[0] : func.body[1]]
            for kind, pattern in (
                ("wall-clock", WALL_CLOCK), ("raw-RNG", RAW_RNG)
            ):
                for m in pattern.finditer(body):
                    self.report(
                        func.rel,
                        func.body[0] + m.start(),
                        "sem-nondet-reach",
                        f"{kind} source in '{qname}', reachable from a "
                        f"deterministic entry via {fmt_chain(chain)}; "
                        "campaigns must replay bit-exactly",
                    )


def gather_files(
    root: Path, paths: list[str], compile_commands: Path | None
) -> list[tuple[str, Path]]:
    seen: dict[str, Path] = {}

    def add(path: Path):
        try:
            rel = path.resolve().relative_to(root).as_posix()
        except ValueError:
            return
        if any(part in EXCLUDED_PARTS for part in rel.split("/")):
            return
        if path.suffix in SOURCE_EXTENSIONS:
            seen.setdefault(rel, path)

    if compile_commands is not None and compile_commands.is_file():
        try:
            entries = json.loads(compile_commands.read_text())
            for entry in entries:
                p = Path(entry["file"])
                if not p.is_absolute():
                    p = Path(entry.get("directory", ".")) / p
                if p.is_file():
                    add(p)
        except (json.JSONDecodeError, KeyError, OSError):
            pass

    if paths:
        for entry in paths:
            p = Path(entry)
            if not p.is_absolute():
                p = root / p
            if p.is_dir():
                for child in sorted(p.rglob("*")):
                    if child.is_file():
                        add(child)
            elif p.is_file():
                add(p)
            else:
                print(f"error: no such path: {entry}", file=sys.stderr)
                sys.exit(2)
    else:
        for d in SCAN_DIRS:
            base = root / d
            if not base.is_dir():
                continue
            for child in sorted(base.rglob("*")):
                if child.is_file():
                    add(child)
    return sorted(seen.items())


def load_config(path: Path | None) -> dict:
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            config.update(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: bad config {path}: {error}", file=sys.stderr)
            sys.exit(2)
    return config


def build_model(files: list[tuple[str, Path]]) -> Model:
    model = Model()
    for rel, path in files:
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        model.add_file(rel, text)
    model.build_call_graph()
    return model


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--config",
        default=None,
        help="rules config JSON (default: tools/lint/semantic_rules.json "
        "under --root when present, else built-in defaults)",
    )
    parser.add_argument(
        "--compile-commands",
        default=None,
        help="compile_commands.json for the TU list (default: "
        "<root>/build/compile_commands.json when present)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    parser.add_argument(
        "--dump-calls",
        action="store_true",
        help="print the resolved call graph and exit (debugging aid)",
    )
    parser.add_argument("paths", nargs="*", help="files or dirs to lint")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"error: bad --root: {args.root}", file=sys.stderr)
        return 2

    config_path = (
        Path(args.config)
        if args.config
        else (
            root / "tools/lint/semantic_rules.json"
            if (root / "tools/lint/semantic_rules.json").is_file()
            else None
        )
    )
    config = load_config(config_path)

    cc = (
        Path(args.compile_commands)
        if args.compile_commands
        else root / "build/compile_commands.json"
    )

    files = gather_files(root, args.paths, cc)
    model = build_model(files)

    if args.dump_calls:
        for qname in sorted(model.calls):
            for callee in sorted(model.calls[qname]):
                print(f"{qname} -> {callee}")
        return 0

    analyzer = Analyzer(model, config)
    if not args.paths:
        unmatched = analyzer.unmatched_specs()
        for message in unmatched:
            print(f"error: config: {message}", file=sys.stderr)
        if unmatched:
            return 2

    findings = analyzer.run()
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"semantic-lint: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"semantic-lint: {len(files)} files, "
        f"{sum(len(d) for d in model.functions.values())} functions, "
        f"{sum(len(c) for c in model.calls.values())} call edges — clean"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
