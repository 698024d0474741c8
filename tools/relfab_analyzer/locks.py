"""Lock-consistency: cross-TU checking of RELFAB_GUARDED_BY members.

clang's -Wthread-safety is single-TU: a method defined out-of-line in
a .cc it doesn't see, or a helper in another file, can touch a guarded
member without the analysis noticing (historically the ShardScheduler
rig pool was exactly this shape). This pass rebuilds
the check over the whole program model:

  for every member annotated RELFAB_GUARDED_BY(mu) in any class, every
  access from a method of that class must happen either
    - inside the scope of a `MutexLock <name>(&mu)` declaration, or
    - in a method annotated RELFAB_REQUIRES(mu) / RELFAB_ACQUIRE(mu),
    - or in a constructor/destructor (exclusive access by construction).

Anything else is a `lock-consistency` finding — even when every *other*
method locks correctly, since one unlocked reader is enough to race.

The pass is name-scoped (member accesses are matched within methods of
the declaring class only), so free functions and other classes with
same-named members do not produce noise.
"""

from .findings import Finding

LOCK_DECL_TYPES = ("MutexLock", "relfab :: MutexLock")


def _lock_names_from_decl(st):
    """`MutexLock l(&mu_);` -> {'mu_'} (from the init expression)."""
    names = set()
    if st.expr is not None:
        names |= set(st.expr.idents)
        for chain in st.expr.members:
            names.add(chain.split(".")[-1])
    return names


def _is_lock_decl(st):
    if st.kind != "decl" or not st.decl_type:
        return False
    t = st.decl_type.replace(" ", "")
    return t.endswith("MutexLock") or "MutexLock" in t


class LockPass:
    def __init__(self, program, allow_index):
        self.program = program
        self.allow = allow_index
        self.findings = []

    def run(self):
        guarded_by_class = {}
        for cls in self.program.classes.values():
            guarded = {name: m for name, m in cls.members.items()
                       if m.guarded_by}
            if guarded:
                guarded_by_class[cls.name] = guarded
        if not guarded_by_class:
            return self.findings
        for fn in self.program.functions:
            if fn.cls in guarded_by_class and not fn.is_ctor_dtor:
                self._check_function(fn, guarded_by_class[fn.cls])
        return self.findings

    def _check_function(self, fn, guarded):
        held = set(fn.requires)
        self._walk(fn, fn.body, guarded, held)

    def _walk(self, fn, block, guarded, held):
        held = set(held)  # block-scoped copy
        for st in block.statements:
            if _is_lock_decl(st):
                held |= _lock_names_from_decl(st)
                continue
            self._check_statement(fn, st, guarded, held)
            if st.body is not None:
                self._walk(fn, st.body, guarded, held)
            if st.else_body is not None:
                self._walk(fn, st.else_body, guarded, held)

    def _accessed_members(self, st, guarded):
        names = set()
        exprs = [st.expr] if st.expr is not None else []
        for e in exprs:
            for ident in e.idents:
                if ident in guarded:
                    names.add(ident)
            for chain in e.members:
                parts = chain.split(".")
                # this->field or field.sub — only count accesses rooted
                # at the member itself.
                if parts[0] in guarded:
                    names.add(parts[0])
                elif parts[0] == "this" and len(parts) > 1 \
                        and parts[1] in guarded:
                    names.add(parts[1])
        if st.target:
            head = st.target.split(".")[0]
            if head in guarded:
                names.add(head)
            elif head == "this":
                parts = st.target.split(".")
                if len(parts) > 1 and parts[1] in guarded:
                    names.add(parts[1])
        return names

    def _check_statement(self, fn, st, guarded, held):
        for name in self._accessed_members(st, guarded):
            mu = guarded[name].guarded_by
            if mu in held:
                continue
            if self.allow.allowed(fn.file, st.line, "lock-consistency"):
                continue
            self.findings.append(Finding(
                fn.file, st.line, "lock-consistency",
                f"'{fn.cls}::{name}' is RELFAB_GUARDED_BY({mu}) but "
                f"{fn.qual_name}() touches it without holding '{mu}' "
                f"(no MutexLock in scope, no RELFAB_REQUIRES({mu})); "
                f"other methods lock it, so this access can race",
                symbol=fn.qual_name))
