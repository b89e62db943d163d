"""The per-message path makes calls CPython 3.11 can specialise.

CPython 3.11 specialises a Python-to-Python call only when the callee
declares no ``*args`` and the caller passes no keywords; anything else
takes the generic call path (docs/simulation.md, "Calls CPython can
specialise"). Simulated results cannot tell the two apart, so this scan
of ``src/repro`` is what keeps the per-message path on the fast one:

* the four continuation APIs take their continuation as the heap entry
  stores it, ``fn`` plus one tuple ``args`` — no ``*args``;
* every call to them passes those arguments as one tuple display, so a
  tuple-valued argument is never splatted by accident;
* the per-message objects of the value path are built positionally.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

# (module, class, method) of each continuation API; ``args`` is its last
# parameter.
CONTINUATIONS = [
    ("sim/server.py", "FifoServer", "submit"),
    ("sim/disk.py", "Disk", "write"),
    ("sim/simulator.py", "Simulator", "post_reserved"),
    ("paxos/storage.py", "AcceptorStorage", "persist"),
    ("paxos/storage.py", "InMemoryStorage", "persist"),
    ("paxos/storage.py", "DurableStorage", "persist"),
]
# Method name -> position of the ``args`` tuple, and whether it is required.
ARGS_AT = {"execute": (2, False), "submit": (2, False), "write": (2, False),
           "persist": (3, True), "post_reserved": (3, True)}
# ``.submit`` receivers that are FifoServers, and the ones that are not
# (a MultiRingProposer gateway, a concurrent.futures executor). A submit
# on any other receiver fails the scan until it is classified here.
FIFO_SUBMITTERS = {"ingress", "egress", "fifo", "_drain"}
OTHER_SUBMITTERS = {"gateway", "pool"}
# Built once or more per delivered value, positionally.
CONSTRUCTORS = {
    "Phase2A", "Phase2B", "SubmitAck", "Submit", "ClientValue", "_Inflight",
    "Command", "Response", "_PendingRequest",
}
POSITIONAL_PACKAGES = ("ringpaxos", "core", "smr", "workload")


def _trees(*packages):
    roots = [PACKAGE / p for p in packages] if packages else [PACKAGE]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(PACKAGE), ast.parse(path.read_text())


def _last_name(node):
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_continuation_apis_take_one_args_tuple():
    methods = {}
    for path, tree in _trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef):
                        methods[(str(path), cls.name, fn.name)] = fn
    for key in CONTINUATIONS:
        fn = methods[key]
        assert fn.args.vararg is None, f"{key}: declares *{fn.args.vararg.arg}"
        assert fn.args.args[-1].arg == "args", f"{key}: last parameter is not args"


def test_continuation_calls_pass_one_tuple_display():
    bad = []
    for path, tree in _trees():
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                continue
            name = call.func.attr
            if name not in ARGS_AT:
                continue
            if name == "write" and len(call.args) + len(call.keywords) < 2:
                continue  # a file write, or a disk write with no continuation
            if name == "submit":
                receiver = _last_name(call.func.value)
                if receiver in OTHER_SUBMITTERS:
                    continue
                if receiver not in FIFO_SUBMITTERS:
                    bad.append(f"{path}:{call.lineno}: unclassified .submit on {receiver!r}")
                    continue
            at, required = ARGS_AT[name]
            args = call.args
            ok = (
                not call.keywords
                and not any(isinstance(a, ast.Starred) for a in args)
                and (len(args) == at + 1 or (len(args) <= at and not required))
                and (len(args) <= at or isinstance(args[at], ast.Tuple))
            )
            if not ok:
                bad.append(f"{path}:{call.lineno}: .{name}(...) does not end in one tuple display")
    assert not bad, "\n".join(bad)


def test_per_message_objects_are_built_positionally():
    bad = [
        f"{path}:{call.lineno}: {call.func.id}({', '.join(k.arg for k in call.keywords)}=...)"
        for path, tree in _trees(*POSITIONAL_PACKAGES)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in CONSTRUCTORS and call.keywords
    ]
    assert not bad, "\n".join(bad)
