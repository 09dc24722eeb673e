#!/usr/bin/env python3
"""Static lock-order analysis for GriddLeS.

Exploits the repo's locking conventions (enforced by tools/lint.py and
Clang's thread-safety analysis): every lock is a griddles::Mutex declared
as a class member or file-scope global, and every acquisition goes
through a scoped MutexLock. That makes "which locks can be held where"
tractable for a line-level scanner without a real C++ frontend:

  1. Scan src/ for classes, their Mutex/CondVar members, member types,
     file-scope Mutex globals, and ACQUIRED_BEFORE/ACQUIRED_AFTER
     annotations.
  2. Scan function bodies tracking the set of MutexLocks held at each
     statement (scope-accurate, including explicit unlock()/lock()).
     Lambda bodies are excluded: code in a lambda usually runs on
     another thread, after the enclosing locks are gone.
  3. Resolve calls made while locks are held (receiver type first, then
     unique-method-name with an STL-collision blocklist) and compute the
     transitive may-acquire set of every function to a fixpoint.
  4. Emit the directed graph "A held while acquiring B" with file:line
     witnesses; any cycle is a potential deadlock and fails the run.
  5. Flag blocking operations under a lock: RPC calls (RpcClient::call /
     call_until), remote::Copier chunk IO (fetch/push/*_attempt), clock
     sleeps (sleep_for/sleep_until/sleep_for_model), and CondVar waits.
     Justify deliberate sites (e.g. monitor-pattern waits, where the
     wait itself releases the mutex) with
         // lint: blocking-ok (<why>)
     on the same line or up to two lines above (so one comment can
     cover an if/else-if pair of waits).
  6. Validate ACQUIRED_BEFORE/ACQUIRED_AFTER declarations: their string
     arguments name graph nodes ("Class::mu_"); unknown names and
     orders contradicted by an observed edge fail the run.

Known limits (by design — the runtime detector in src/common/lockdep.h
covers what a static pass cannot): nodes are (class, member) pairs, not
instances; calls through type-erased receivers that resolve to nothing
are skipped; logging macros are invisible.

Run from the repo root:  python3 tools/lockgraph.py [--json X] [--dot X]
Self-check the checker:  python3 tools/lockgraph.py --self-test
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

KEYWORDS = {
    "if", "for", "while", "switch", "return", "else", "do", "catch",
    "sizeof", "new", "delete", "case", "default", "throw", "decltype",
    "alignof", "static_assert", "noexcept", "assert", "co_await",
    "co_return", "co_yield", "alignas", "typeid", "template", "requires",
}

# Method names too generic for unique-name call resolution: they collide
# with STL/std::filesystem methods or are defined on type-erased
# interfaces the receiver scan cannot pin down.
GENERIC_METHODS = {
    "string", "size", "count", "empty", "data", "begin", "end", "find",
    "erase", "insert", "substr", "c_str", "front", "back", "value", "get",
    "reset", "swap", "clear", "stop", "close", "open", "load", "store",
    "exchange", "join", "native", "read", "write", "seek", "tell",
    "flush", "describe", "ok", "status", "str", "at", "emplace",
    "push_back", "emplace_back", "pop_back", "resize", "reserve", "now",
    "min", "max", "abs", "move", "cat", "lock", "unlock", "try_lock",
    "notify_one", "notify_all", "run", "start", "init", "name",
}

SLEEP_METHODS = {"sleep_for", "sleep_until", "sleep_for_model"}
CV_WAIT_METHODS = {"wait", "wait_until"}
RPC_METHODS = {"call", "call_until"}
COPIER_METHODS = {"fetch", "push", "fetch_once", "push_once"}

BLOCKING_OK = re.compile(r"//\s*lint:\s*blocking-ok\b")

LAMBDA_TAIL = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*)?(?:[A-Z_]{2,}\s*\([^()]*\)\s*)*"
    r"(?:->\s*[\w:<>,\s&*]+?)?\s*$")
CLASS_OPEN = re.compile(
    r"\b(?:class|struct)\s+(?:[A-Z_]+\s*\([^()]*\)\s*)*(\w+)\s*"
    r"(?:final\s*)?(?::[^:].*)?$")
FN_NAME = re.compile(r"(?:(\w+)\s*::\s*)?(~?\w+|operator\S{1,2})\s*\(")
MUTEX_MEMBER = re.compile(
    r"^(?:mutable\s+)?(?:griddles::)?Mutex\s+(\w+)\s*(.*)$")
GLOBAL_MUTEX = re.compile(r"^(?:griddles::)?Mutex\s+(\w+)\s*(.*)$")
MEMBER_DECL = re.compile(
    r"^(?:mutable\s+)?(?:const\s+)?([\w:]+(?:<[^;=]*>)?)\s*((?:[&*]|\s)*)"
    r"(\w+)\s*(?:=[^;]*|\{[^;]*)?$")
LOCAL_DECL = re.compile(
    r"(?:^|[;{(]\s*)(?:const\s+)?([\w:]+(?:<[^;=()]*>)?)[&*\s]+"
    r"(\w+)\s*(?:=|\()")
MUTEXLOCK = re.compile(r"\bMutexLock\s+(\w+)\s*\(\s*([^()]*?)\s*\)")
LOCK_TOGGLE = re.compile(r"\b(\w+)\s*\.\s*(lock|unlock)\s*\(\s*\)")
CALL = re.compile(r"(?:([\w\]\)]+(?:\.|->|::))+)?([\w~]+)\s*\(")
ACQ_ANN = re.compile(r"ACQUIRED_(BEFORE|AFTER)\s*\(([^()]*)\)")
ANN_TARGET = re.compile(r'"\s*([\w:]+)\s*"')


def preprocess(text: str) -> str:
    """Strips comments and neutralises literals, preserving line layout.

    String contents keep identifier-ish characters (ACQUIRED_BEFORE
    arguments survive) but lose braces/parens/semicolons so the brace
    tracker cannot be confused.
    """
    out: list[str] = []
    i, n = 0, len(text)
    mode = "code"
    while i < n:
        c = text[i]
        if mode == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
            elif c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif mode == "str":
            if c == "\\" and i + 1 < n:
                out.append(" ")
                out.append("\n" if text[i + 1] == "\n" else " ")
                i += 2
                continue
            if c == '"':
                mode = "code"
                out.append('"')
            else:
                out.append(c if (c.isalnum() or c in "_:./-") else " ")
            i += 1
        else:  # chr
            if c == "\\" and i + 1 < n:
                out.append(" ")
                out.append("\n" if text[i + 1] == "\n" else " ")
                i += 2
                continue
            if c == "'":
                mode = "code"
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


class LockEvent:
    def __init__(self, var: str, expr: str, line: int, depth: int,
                 held: list["LockEvent"]):
        self.var = var
        self.expr = expr
        self.line = line
        self.depth = depth
        self.held = held  # events active at acquisition time
        self.active = True
        # Depth of a branch-local unlock(): the release happened inside
        # a nested block (usually ahead of an early return), so the lock
        # is still held on the fall-through path once that block closes.
        self.suspended_at: int | None = None
        self.node: str | None = None  # resolved later


class CallEvent:
    def __init__(self, receiver: str, name: str, line: int,
                 held: list[LockEvent]):
        self.receiver = receiver  # "" for bare calls; may end with "::"
        self.name = name
        self.line = line
        self.held = held


class Function:
    def __init__(self, key: str, cls: str | None, path: str, line: int):
        self.key = key
        self.cls = cls
        self.path = path
        self.line = line
        self.locals: dict[str, str] = {}
        self.lock_events: list[LockEvent] = []
        self.call_events: list[CallEvent] = []


class FileScan:
    """Single-pass scanner over one preprocessed source file."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.justified: set[int] = set()
        # A blocking-ok comment covers its own line and the next two, so
        # one comment ahead of an if/else-if wait pair covers both arms.
        for lineno, raw in enumerate(text.splitlines(), 1):
            if BLOCKING_OK.search(raw):
                self.justified.update((lineno, lineno + 1, lineno + 2))
        self.classes: set[str] = set()
        self.mutex_members: dict[str, set[str]] = {}
        self.member_types: dict[str, dict[str, str]] = {}
        self.global_mutexes: set[str] = set()
        # (class-or-None, member, direction, [targets], line)
        self.annotations: list[tuple] = []
        self.functions: list[Function] = []
        self._scan(preprocess(text))

    # -- scanning -----------------------------------------------------

    def _scan(self, clean: str) -> None:
        depth = 0
        line = 1
        chunk = ""
        chunk_line = 1
        # (kind, name, inner_depth); kinds: namespace class function
        # lambda block
        stack: list[tuple[str, object, int]] = []

        def current(kind: str):
            for entry in reversed(stack):
                if entry[0] == kind:
                    return entry
            return None

        def innermost_kind() -> str:
            return stack[-1][0] if stack else "file"

        def in_lambda_over_function() -> bool:
            for entry in reversed(stack):
                if entry[0] == "lambda":
                    return True
                if entry[0] == "function":
                    return False
            return False

        for c in clean:
            self._current_depth = depth
            if c == "\n":
                line += 1
                chunk += c
                continue
            if c == "{":
                kind, name = self._classify(chunk, stack)
                fn_entry = current("function")
                # Process the text ahead of the brace: for a plain block
                # that's the controlling statement; for a lambda it's the
                # call the lambda is being passed to (the lambda *body*
                # is excluded — it usually runs later, elsewhere).
                if (fn_entry is not None
                        and kind in ("block", "lambda")
                        and not in_lambda_over_function()):
                    self._statement(fn_entry[1], chunk, chunk_line)
                if kind == "function":
                    fn = Function(name[0], name[1], self.path,
                                  chunk_line + chunk.count("\n"))
                    self.functions.append(fn)
                    stack.append(("function", fn, depth + 1))
                else:
                    stack.append((kind, name, depth + 1))
                depth += 1
                chunk = ""
                chunk_line = line
                continue
            if c == "}":
                depth -= 1
                while stack and stack[-1][2] > depth:
                    stack.pop()
                fn_entry = current("function")
                if fn_entry is not None:
                    for ev in fn_entry[1].lock_events:
                        if ev.active and ev.depth > depth:
                            ev.active = False
                        elif (not ev.active
                              and ev.suspended_at is not None
                              and ev.depth <= depth < ev.suspended_at):
                            ev.active = True
                            ev.suspended_at = None
                chunk = ""
                chunk_line = line
                continue
            if c == ";":
                kind = innermost_kind()
                if kind == "function":
                    if not in_lambda_over_function():
                        self._statement(stack[-1][1], chunk, chunk_line)
                elif kind == "class":
                    self._member(stack[-1][1], chunk, chunk_line)
                elif kind in ("namespace", "file"):
                    self._global(chunk, chunk_line)
                elif kind == "lambda":
                    pass  # deferred execution: no events
                else:  # block inside a function, or stray
                    fn_entry = current("function")
                    if (fn_entry is not None
                            and not in_lambda_over_function()):
                        self._statement(fn_entry[1], chunk, chunk_line)
                chunk = ""
                chunk_line = line
                continue
            if not chunk.strip():
                chunk = ""
                chunk_line = line
            chunk += c

    def _classify(self, chunk: str,
                  stack: list[tuple]) -> tuple[str, object]:
        text = chunk.strip()
        inner = stack[-1][0] if stack else "file"
        in_function = any(e[0] in ("function", "lambda") for e in stack)
        if in_function:
            if LAMBDA_TAIL.search(text):
                return "lambda", None
            return "block", None
        if "namespace" in text.split():
            return "namespace", text.split()[-1]
        m = CLASS_OPEN.search(text)
        if m and "enum" not in text.split():
            name = m.group(1)
            self.classes.add(name)
            self.mutex_members.setdefault(name, set())
            self.member_types.setdefault(name, {})
            return "class", name
        if LAMBDA_TAIL.search(text):
            return "lambda", None
        for fm in FN_NAME.finditer(text):
            cls, fname = fm.group(1), fm.group(2)
            if fname in KEYWORDS or cls in KEYWORDS:
                continue
            if cls is None and inner == "class":
                cls = stack[-1][1]
            if cls is not None:
                return "function", (f"{cls}::{fname}", cls)
            return "function", (fname, None)
        return "block", None

    # -- statement-level extraction -----------------------------------

    def _statement(self, fn: Function, chunk: str, chunk_line: int) -> None:
        def line_of(pos: int) -> int:
            return chunk_line + chunk[:pos].count("\n")

        consumed: list[tuple[int, int]] = []
        for m in MUTEXLOCK.finditer(chunk):
            held = [e for e in fn.lock_events if e.active]
            ev = LockEvent(m.group(1), m.group(2), line_of(m.start()),
                           self._current_depth, held)
            fn.lock_events.append(ev)
            consumed.append(m.span())
        for m in LOCK_TOGGLE.finditer(chunk):
            var, op = m.group(1), m.group(2)
            for ev in reversed(fn.lock_events):
                if ev.var == var:
                    if op == "lock":
                        ev.active = True
                        ev.suspended_at = None
                    else:
                        ev.active = False
                        ev.suspended_at = (self._current_depth
                                           if self._current_depth > ev.depth
                                           else None)
                    consumed.append(m.span())
                    break
        for m in LOCAL_DECL.finditer(chunk):
            if m.group(1) not in KEYWORDS:
                fn.locals.setdefault(m.group(2), m.group(1))
        for m in CALL.finditer(chunk):
            if any(s <= m.start() < e for s, e in consumed):
                continue
            name = m.group(2)
            if name in KEYWORDS or name == "MutexLock":
                continue
            receiver = (m.group(1) or "").rstrip(".->")
            if receiver.endswith(":"):
                receiver = receiver.rstrip(":") + "::"
            held = [e for e in fn.lock_events if e.active]
            fn.call_events.append(
                CallEvent(receiver, name, line_of(m.start()), held))

    # Brace depth at the statement being processed; maintained by _scan
    # so lock lifetimes can expire on scope exit.
    _current_depth = 0

    # -- declaration-level extraction ---------------------------------

    def _member(self, cls: str, chunk: str, chunk_line: int) -> None:
        text = " ".join(chunk.split())
        text = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "",
                      text)
        m = MUTEX_MEMBER.match(text)
        if m:
            self.mutex_members.setdefault(cls, set()).add(m.group(1))
            self._annotations(cls, m.group(1), m.group(2), chunk_line)
            return
        m = MEMBER_DECL.match(text)
        if m and m.group(1) not in KEYWORDS:
            self.member_types.setdefault(cls, {})[m.group(3)] = m.group(1)

    def _global(self, chunk: str, chunk_line: int) -> None:
        text = " ".join(chunk.split())
        m = GLOBAL_MUTEX.match(text)
        if m:
            self.global_mutexes.add(m.group(1))
            self._annotations(None, m.group(1), m.group(2), chunk_line)

    def _annotations(self, cls: str | None, member: str, trailing: str,
                     line: int) -> None:
        for m in ACQ_ANN.finditer(trailing):
            targets = ANN_TARGET.findall(m.group(2))
            if targets:
                self.annotations.append(
                    (cls, member, m.group(1), targets, line))


class Analysis:
    """Cross-file lock-order analysis over a set of FileScans."""

    def __init__(self, scans: list[FileScan]):
        self.scans = scans
        self.classes: set[str] = set()
        self.mutex_members: dict[str, set[str]] = {}
        self.member_types: dict[str, dict[str, str]] = {}
        self.global_mutexes: dict[str, str] = {}  # name -> defining file
        self.methods_by_name: dict[str, set[str]] = {}
        self.functions: dict[str, list[Function]] = {}
        for scan in scans:
            self.classes |= scan.classes
            for cls, members in scan.mutex_members.items():
                self.mutex_members.setdefault(cls, set()).update(members)
            for cls, types in scan.member_types.items():
                self.member_types.setdefault(cls, {}).update(types)
            for g in scan.global_mutexes:
                self.global_mutexes.setdefault(g, scan.path)
            for fn in scan.functions:
                self.functions.setdefault(fn.key, []).append(fn)
                name = fn.key.split("::")[-1]
                if fn.cls is not None:
                    self.methods_by_name.setdefault(name, set()).add(fn.cls)
        self.nodes: set[str] = set()
        for cls, members in self.mutex_members.items():
            for m in members:
                self.nodes.add(f"{cls}::{m}")
        self.nodes.update(self.global_mutexes)
        # edge -> list of witness strings
        self.edges: dict[tuple[str, str], list[str]] = {}
        self.declared: dict[tuple[str, str], str] = {}
        self.errors: list[str] = []
        self.blocking: list[str] = []
        self.justified_blocking: list[str] = []
        self._resolve_locks()
        self._fixpoint()
        self._collect_edges()
        self._check_blocking()
        self._check_annotations()
        self.cycles = self._find_cycles()

    # -- resolution ---------------------------------------------------

    def _resolve_type(self, raw: str | None) -> str | None:
        if not raw:
            return None
        hits = [t for t in re.findall(r"[A-Za-z_]\w*", raw)
                if t in self.classes]
        return hits[-1] if hits else None

    def _resolve_lock_expr(self, expr: str, fn: Function) -> str | None:
        expr = expr.strip()
        if not expr:
            return None
        if "." in expr or "->" in expr:
            m = re.match(r"^(.*?)(?:\.|->)(\w+)$", expr)
            if not m:
                return None
            recv, member = m.group(1), m.group(2)
            rid = re.findall(r"\w+", recv)
            rtype = None
            if rid:
                rtype = fn.locals.get(rid[-1])
                if rtype is None and fn.cls is not None:
                    rtype = self.member_types.get(fn.cls, {}).get(rid[-1])
            cls = self._resolve_type(rtype)
            if cls and member in self.mutex_members.get(cls, set()):
                return f"{cls}::{member}"
            return None
        if "::" in expr:
            return expr if expr in self.nodes else None
        if (fn.cls is not None
                and expr in self.mutex_members.get(fn.cls, set())):
            return f"{fn.cls}::{expr}"
        if expr in self.global_mutexes:
            return expr
        return None

    def _resolve_locks(self) -> None:
        for fns in self.functions.values():
            for fn in fns:
                for ev in fn.lock_events:
                    ev.node = self._resolve_lock_expr(ev.expr, fn)
                    if ev.node is None:
                        self.errors.append(
                            f"{fn.path}:{ev.line}: cannot resolve lock "
                            f"expression '{ev.expr}' in {fn.key} — use a "
                            "member Mutex, a typed member/local path, or "
                            "a file-scope global")

    def _resolve_call(self, call: CallEvent,
                      fn: Function) -> tuple[str | None, str | None]:
        """Returns (class-or-None, function-key-or-None)."""
        name = call.name
        recv = call.receiver
        if recv.endswith("::"):
            cls = recv[:-2].split("::")[-1]
            if cls in self.classes:
                return cls, self._fn_key(cls, name)
            return None, name if name in self.functions else None
        if recv in ("", "this"):
            if (fn.cls is not None
                    and fn.cls in self.methods_by_name.get(name, set())):
                return fn.cls, self._fn_key(fn.cls, name)
            if name in self.functions:
                return None, name
            return self._unique(name)
        rid = re.findall(r"\w+", recv)
        rtype = None
        if rid:
            rtype = fn.locals.get(rid[-1])
            if rtype is None and fn.cls is not None:
                rtype = self.member_types.get(fn.cls, {}).get(rid[-1])
        cls = self._resolve_type(rtype)
        if cls is not None:
            key = self._fn_key(cls, name)
            if key is not None:
                return cls, key
            if name in CV_WAIT_METHODS or name in RPC_METHODS or \
                    name in COPIER_METHODS:
                return cls, None  # class known, body external/none
        return self._unique(name)

    def _fn_key(self, cls: str, name: str) -> str | None:
        key = f"{cls}::{name}"
        return key if key in self.functions else None

    def _unique(self, name: str) -> tuple[str | None, str | None]:
        if name in GENERIC_METHODS:
            return None, None
        owners = self.methods_by_name.get(name, set())
        if len(owners) == 1:
            cls = next(iter(owners))
            return cls, self._fn_key(cls, name)
        return None, None

    # -- transitive may-acquire --------------------------------------

    def _fixpoint(self) -> None:
        # key -> {node: witness}
        self.may_acquire: dict[str, dict[str, str]] = {}
        resolved_calls: dict[str, set[str]] = {}
        for key, fns in self.functions.items():
            acq: dict[str, str] = {}
            callees: set[str] = set()
            for fn in fns:
                for ev in fn.lock_events:
                    if ev.node is not None:
                        acq.setdefault(ev.node, f"{fn.path}:{ev.line}")
                for call in fn.call_events:
                    _, target = self._resolve_call(call, fn)
                    if target is not None and target != key:
                        callees.add(target)
            self.may_acquire[key] = acq
            resolved_calls[key] = callees
        changed = True
        while changed:
            changed = False
            for key, callees in resolved_calls.items():
                acq = self.may_acquire[key]
                for target in callees:
                    for node, wit in self.may_acquire.get(target,
                                                          {}).items():
                        if node not in acq:
                            acq[node] = wit
                            changed = True

    # -- edges, blocking, annotations, cycles -------------------------

    def _add_edge(self, a: str, b: str, witness: str) -> None:
        self.edges.setdefault((a, b), [])
        if len(self.edges[(a, b)]) < 3:
            self.edges[(a, b)].append(witness)

    def _collect_edges(self) -> None:
        for key, fns in self.functions.items():
            for fn in fns:
                for ev in fn.lock_events:
                    if ev.node is None:
                        continue
                    for held in ev.held:
                        if held.node is None:
                            continue
                        self._add_edge(
                            held.node, ev.node,
                            f"{fn.path}:{ev.line} {fn.key} acquires "
                            f"{ev.node} while holding {held.node}")
                for call in fn.call_events:
                    if not call.held:
                        continue
                    _, target = self._resolve_call(call, fn)
                    if target is None or target == key:
                        continue
                    for node, wit in self.may_acquire.get(target,
                                                          {}).items():
                        for held in call.held:
                            if held.node is None:
                                continue
                            self._add_edge(
                                held.node, node,
                                f"{fn.path}:{call.line} {fn.key} calls "
                                f"{target} which acquires {node} "
                                f"({wit})")

    def _blocking_category(self, call: CallEvent,
                           fn: Function) -> str | None:
        name = call.name
        if name in SLEEP_METHODS:
            return "sleep"
        cls, _ = self._resolve_call(call, fn)
        rid = re.findall(r"\w+", call.receiver)
        tail = rid[-1].lower() if rid else ""
        if name in CV_WAIT_METHODS:
            rtype = None
            if rid:
                rtype = fn.locals.get(rid[-1])
                if rtype is None and fn.cls is not None:
                    rtype = self.member_types.get(fn.cls, {}).get(rid[-1])
            if cls == "CondVar" or "CondVar" in (rtype or "") or \
                    "cv" in tail:
                return "condvar-wait"
            return None
        if name in RPC_METHODS:
            if cls == "RpcClient" or "client" in tail or "rpc" in tail:
                return "rpc"
            return None
        if name in COPIER_METHODS:
            if cls == "Copier" or "copier" in tail:
                return "copier-io"
            return None
        return None

    def _check_blocking(self) -> None:
        scans_by_path = {s.path: s for s in self.scans}
        for fns in self.functions.values():
            for fn in fns:
                scan = scans_by_path[fn.path]
                for call in fn.call_events:
                    held = [e.node for e in call.held
                            if e.node is not None]
                    if not held:
                        continue
                    category = self._blocking_category(call, fn)
                    if category is None:
                        continue
                    desc = (f"{fn.path}:{call.line} [{category}] "
                            f"{fn.key} calls "
                            f"{call.receiver + '.' if call.receiver else ''}"
                            f"{call.name}() while holding "
                            f"{', '.join(sorted(set(held)))}")
                    if call.line in scan.justified:
                        self.justified_blocking.append(desc)
                    else:
                        self.blocking.append(
                            desc + " — release the lock across the "
                            "blocking operation or justify with "
                            "'// lint: blocking-ok (<why>)'")

    def _check_annotations(self) -> None:
        for scan in self.scans:
            for cls, member, direction, targets, line in scan.annotations:
                self_node = f"{cls}::{member}" if cls else member
                if self_node not in self.nodes:
                    self.errors.append(
                        f"{scan.path}:{line}: ACQUIRED_{direction} on "
                        f"unknown lock node '{self_node}'")
                    continue
                for target in targets:
                    if target not in self.nodes:
                        self.errors.append(
                            f"{scan.path}:{line}: ACQUIRED_{direction}"
                            f"(\"{target}\") names an unknown lock node "
                            f"(known: Class::member or global name)")
                        continue
                    if direction == "BEFORE":
                        first, second = self_node, target
                    else:
                        first, second = target, self_node
                    reverse = (second, first)
                    if reverse in self.edges:
                        self.errors.append(
                            f"{scan.path}:{line}: declared order "
                            f"{first} -> {second} contradicted by "
                            f"observed edge {second} -> {first} "
                            f"({self.edges[reverse][0]})")
                    self.declared[(first, second)] = (
                        f"{scan.path}:{line} ACQUIRED_{direction} "
                        "declaration")

    def _find_cycles(self) -> list[dict]:
        graph: dict[str, set[str]] = {}
        combined: dict[tuple[str, str], list[str]] = {}
        for (a, b), wits in self.edges.items():
            graph.setdefault(a, set()).add(b)
            combined.setdefault((a, b), []).extend(wits)
        for (a, b), wit in self.declared.items():
            graph.setdefault(a, set()).add(b)
            combined.setdefault((a, b), []).append(wit)
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            work = [(v, iter(sorted(graph.get(v, set()))))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(graph.get(w,
                                                              set())))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == node:
                            break
                    sccs.append(scc)

        for v in sorted(graph):
            if v not in index:
                strongconnect(v)

        cycles = []
        for scc in sccs:
            members = set(scc)
            if len(scc) == 1:
                v = scc[0]
                if v not in graph.get(v, set()):
                    continue
            witnesses = []
            for (a, b), wits in sorted(combined.items()):
                if a in members and b in members:
                    for w in wits:
                        witnesses.append(f"{a} -> {b}: {w}")
            cycles.append({"locks": sorted(members),
                           "witnesses": witnesses})
        return cycles

    # -- output -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"from": a, "to": b, "witnesses": wits}
                for (a, b), wits in sorted(self.edges.items())
            ],
            "declared_orders": [
                {"from": a, "to": b, "source": src}
                for (a, b), src in sorted(self.declared.items())
            ],
            "cycles": self.cycles,
            "blocking_under_lock": self.blocking,
            "justified_blocking": sorted(self.justified_blocking),
            "errors": self.errors,
        }

    def to_dot(self) -> str:
        lines = ["digraph lockorder {", "  rankdir=LR;",
                 "  node [shape=box, fontname=\"monospace\"];"]
        cycle_nodes = {n for c in self.cycles for n in c["locks"]}
        for node in sorted(self.nodes):
            attrs = ""
            if node in cycle_nodes:
                attrs = " [color=red, penwidth=2]"
            lines.append(f'  "{node}"{attrs};')
        for (a, b), wits in sorted(self.edges.items()):
            label = wits[0].split(" ")[0] if wits else ""
            lines.append(f'  "{a}" -> "{b}" [label="{label}"];')
        for (a, b) in sorted(self.declared):
            if (a, b) not in self.edges:
                lines.append(f'  "{a}" -> "{b}" [style=dashed, '
                             'label="declared"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def findings(self) -> list[str]:
        out = list(self.errors)
        out.extend(self.blocking)
        for cycle in self.cycles:
            out.append("potential deadlock: lock-order cycle among {"
                       + ", ".join(cycle["locks"]) + "}")
            out.extend("  " + w for w in cycle["witnesses"])
        return out


def analyze(files: dict[str, str]) -> Analysis:
    return Analysis([FileScan(path, text)
                     for path, text in sorted(files.items())])


def load_repo_files() -> dict[str, str]:
    files: dict[str, str] = {}
    for pattern in ("*.h", "*.cc"):
        for path in sorted((REPO / "src").rglob(pattern)):
            files[str(path.relative_to(REPO))] = path.read_text()
    return files


# ---------------------------------------------------------------------
# Self-test: the analysis must flag seeded bugs and stay silent on
# idiomatic code, or the ctest is vacuous.

SELFTEST_CYCLE = {
    "src/st/a.h": """
#pragma once
class Alpha {
 public:
  void lift();
  void drop();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
class Beta {
 public:
  void pull();
  void nudge();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
""",
    "src/st/a.cc": """
#include "src/st/a.h"
void Alpha::lift() {
  MutexLock lock(mu_);
  Beta b;
  b.nudge();
}
void Alpha::drop() {
  MutexLock lock(mu_);
}
void Beta::pull() {
  MutexLock lock(mu_);
  Alpha a;
  a.drop();
}
void Beta::nudge() {
  MutexLock lock(mu_);
}
""",
}

SELFTEST_BLOCKING = {
    "src/st/b.h": """
#pragma once
class Pacer {
 public:
  void slow();
  void fine();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
""",
    "src/st/b.cc": """
#include "src/st/b.h"
void Pacer::slow() {
  MutexLock lock(mu_);
  clock.sleep_for(delay);
}
void Pacer::fine() {
  MutexLock lock(mu_);
  lock.unlock();
  clock.sleep_for(delay);
}
""",
}

SELFTEST_JUSTIFIED = {
    "src/st/c.h": """
#pragma once
class Waiter {
 public:
  void park();
 private:
  Mutex mu_;
  CondVar cv_;
  bool ready_ GUARDED_BY(mu_);
};
""",
    "src/st/c.cc": """
#include "src/st/c.h"
void Waiter::park() {
  MutexLock lock(mu_);
  while (!ready_) {
    // lint: blocking-ok (monitor wait: releases mu_ while blocked)
    cv_.wait(mu_);
  }
}
""",
}

SELFTEST_LAMBDA = {
    "src/st/d.h": """
#pragma once
class Spawner {
 public:
  void kick();
  void grab();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
class Target {
 public:
  void poke();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
""",
    "src/st/d.cc": """
#include "src/st/d.h"
void Spawner::kick() {
  MutexLock lock(mu_);
  workers_.emplace_back([this] {
    Target t;
    t.poke();
  });
}
void Target::poke() {
  MutexLock lock(mu_);
  Spawner s;
  s.grab();
}
void Spawner::grab() {
  MutexLock lock(mu_);
}
""",
}

SELFTEST_ANNOTATION = {
    "src/st/e.h": """
#pragma once
class Outer {
 public:
  void step();
 private:
  Mutex mu_ ACQUIRED_AFTER("Inner::mu_");
  int v_ GUARDED_BY(mu_);
};
class Inner {
 public:
  void tick();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
""",
    "src/st/e.cc": """
#include "src/st/e.h"
void Outer::step() {
  MutexLock lock(mu_);
  Inner i;
  i.tick();
}
void Inner::tick() {
  MutexLock lock(mu_);
}
""",
}

SELFTEST_CLEAN = {
    "src/st/f.h": """
#pragma once
class Upper {
 public:
  void go();
 private:
  Mutex mu_ ACQUIRED_BEFORE("Lower::mu_");
  int v_ GUARDED_BY(mu_);
};
class Lower {
 public:
  void leaf();
 private:
  Mutex mu_;
  int v_ GUARDED_BY(mu_);
};
""",
    "src/st/f.cc": """
#include "src/st/f.h"
void Upper::go() {
  MutexLock lock(mu_);
  Lower l;
  l.leaf();
}
void Lower::leaf() {
  MutexLock lock(mu_);
}
""",
}


def self_test() -> int:
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        if not cond:
            print(f"self-test: FAILED: {what}")
            ok = False

    a = analyze(SELFTEST_CYCLE)
    expect(len(a.cycles) == 1, "seeded Alpha/Beta cycle not detected")
    if a.cycles:
        expect(sorted(a.cycles[0]["locks"]) ==
               ["Alpha::mu_", "Beta::mu_"],
               f"wrong cycle members: {a.cycles[0]['locks']}")
        expect(any("a.cc" in w for w in a.cycles[0]["witnesses"]),
               "cycle witnesses missing file:line")

    a = analyze(SELFTEST_BLOCKING)
    expect(len(a.blocking) == 1,
           f"sleep-under-lock not flagged exactly once: {a.blocking}")
    expect(not a.cycles, "false cycle in blocking self-test")

    a = analyze(SELFTEST_JUSTIFIED)
    expect(not a.blocking,
           f"justified CondVar wait still flagged: {a.blocking}")
    expect(len(a.justified_blocking) == 1,
           "justified wait not recorded as justified")

    a = analyze(SELFTEST_LAMBDA)
    expect(not a.cycles,
           f"lambda body treated as running under the lock: {a.cycles}")

    a = analyze(SELFTEST_ANNOTATION)
    expect(any("contradicted" in e for e in a.errors),
           f"ACQUIRED_AFTER contradiction not detected: {a.errors}")

    a = analyze(SELFTEST_CLEAN)
    expect(not a.findings(),
           f"false findings on clean input: {a.findings()}")
    expect(("Upper::mu_", "Lower::mu_") in a.edges,
           "clean nesting edge missing from graph")

    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="verify detection on seeded bugs")
    parser.add_argument("--json", metavar="PATH",
                        help="write the lock graph as JSON ('-' stdout)")
    parser.add_argument("--dot", metavar="PATH",
                        help="write the lock graph as DOT ('-' stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    analysis = analyze(load_repo_files())

    if args.json:
        payload = json.dumps(analysis.to_json(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            pathlib.Path(args.json).write_text(payload)
    if args.dot:
        if args.dot == "-":
            sys.stdout.write(analysis.to_dot())
        else:
            pathlib.Path(args.dot).write_text(analysis.to_dot())

    findings = analysis.findings()
    for finding in findings:
        print(finding)
    if findings:
        print(f"lockgraph: {len(findings)} finding(s)")
        return 1
    if not args.quiet:
        print(f"lockgraph: clean ({len(analysis.nodes)} locks, "
              f"{len(analysis.edges)} ordered pairs, "
              f"{len(analysis.justified_blocking)} justified blocking "
              "sites)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
