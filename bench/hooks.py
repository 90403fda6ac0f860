"""Per-layer tracing of graphforge from outside the program.

``HOOKS`` is the hook table: one row per layer boundary, naming every
``(module, attribute)`` binding of the callable it wraps, re-exports
included.  ``Tracer.install`` replaces each binding with a wrapper and
``Tracer.uninstall`` puts the originals back.  A binding that no longer
resolves is not an error: the metrics of its row read ``None`` (null in
JSON), so a refactor that moves a function breaks one row, not the run.

Every boundary is aggregated on the fly (calls, self time, inclusive time
and up to two row-specific counts); no per-call span is kept, because the
hot boundaries (``normalize``, ``coset_rep``, ``act``) see about a million
calls per job.  A boundary's self time is its duration minus the time of
the traced calls it made.

Threads: ``pmap`` runs rows on a thread pool.  Each thread keeps its own
frame stack and record table.  The main thread is timed by the wall clock.
Pool threads are timed by their own CPU clock, because under the
interpreter lock their wall intervals overlap.  A row's time is charged to
the boundary that called ``pmap`` (the row is that boundary's work), and
``pmap``'s self time is what is left of its wall time: pool start-up,
hand-offs and lock waits.  The self times of all boundaries plus the job
root therefore add up to the traced job's wall time.
"""

from __future__ import annotations

import importlib
import threading
import time

# record slots
CALLS, SELF, TOTAL, X1, X2 = range(5)


class Hook:
    """One row of the hook table.

    ``kind`` is "count" (calls only; the time stays with the caller) or
    "time".  ``label`` is None, "class" (the receiver's class, read per
    call), "strategy" (the subgroup strategy of the class that owns the
    binding) or "key" (the key of a dict binding).  ``fields`` are the
    reported fields: ``calls`` and ``self_s``, then the extra slots X1 and
    X2 in order; a field ending in ``_ratio`` is divided by calls rather
    than by jobs.  ``after(rec, args, result)`` fills the extra slots.
    """

    def __init__(self, metric, bindings, fields=("calls", "self_s"),
                 kind="time", label=None, after=None):
        self.metric = metric
        self.bindings = tuple(bindings)
        self.fields = fields
        self.kind = kind
        self.label = label
        self.after = after


def _methods(classes, name):
    return [f"graphforge.subgroups:{cls}.{name}" for cls in classes]


def _everywhere(name, modules):
    return [f"graphforge.{m}:{name}" for m in modules]


SUBGROUP_CLASSES = (
    "TrivialSubgroup", "WholeSubgroup", "FiniteSubgroup", "CyclicSubgroup",
    "FreeFactorSubgroup", "SearchSubgroup", "RestrictedSubgroup",
    "JoinSubgroup", "ConjugateSubgroup", "ImageSubgroup",
)

CONSTRUCTIONS = ("coned_off", "c_pushout", "coalesce", "bass_serre",
                 "project_to_tree", "validate_graph")


def _after_letters(rec, args, result):
    word = args[1]
    rec[X1] += len(word) if isinstance(word, tuple) else len(str(word).split())


def _after_len(rec, args, result):
    rec[X1] += len(result)


def _after_unknown(rec, args, result):
    if result == "unknown":
        rec[X1] += 1


def _after_incident(rec, args, result):
    found, complete = result
    rec[X1] += len(found)
    if not complete:
        rec[X2] += 1


def _after_ball_view(rec, args, result):
    rec[X1] += result.vertex_count
    rec[X2] += sum(1 for v in result.vertices if not v.complete)


def _after_paths(rec, args, result):
    rec[X1] += result


def _after_delta(rec, args, result):
    rec[X1] += args[0].vertex_count


HOOKS = (
    Hook("words.mul", ["graphforge.words:Word.__mul__"], ("calls",), "count"),
    Hook("words.inverse", ["graphforge.words:Word.inverse"], ("calls",),
         "count"),
    Hook("words.parse", ["graphforge.words:Word.parse"], ("calls",), "count"),
    # X2 (distinct inputs per group instance) is filled at the end of a job
    Hook("groups.normalize", ["graphforge.groups:Group.normalize"],
         ("calls", "self_s", "letters", "repeat_ratio"), label="class",
         after=_after_letters),
    Hook("groups.multiply", ["graphforge.groups:Group.multiply"], ("calls",),
         "count"),
    Hook("groups.ball_enumerate",
         _everywhere("ball_enumerate",
                     ("groups", "subgroups", "analysis", "pipeline"))
         + ["graphforge:ball_enumerate"],
         ("calls", "self_s", "elements"), after=_after_len),
    Hook("subgroups.coset_rep", _methods(SUBGROUP_CLASSES, "coset_rep"),
         label="strategy"),
    # a call made directly by elem_equal counts towards its membership_ratio
    Hook("subgroups.contains", _methods(SUBGROUP_CLASSES, "contains"),
         ("calls", "self_s", "unknown"), label="strategy",
         after=_after_unknown),
    Hook("subgroups.sample", ["graphforge.subgroups:Subgroup.sample"]),
    Hook("subgroups.check_monomorphism",
         ["graphforge.subgroups:check_monomorphism",
          "graphforge:check_monomorphism"]),
    Hook("gsets.act", ["graphforge.gsets:GSet.act"]),
    Hook("gsets.elem_equal", ["graphforge.gsets:GSet.elem_equal"],
         ("calls", "self_s", "membership_ratio")),
    Hook("gsets.chain_factorize",
         _everywhere("chain_factorize", ("gsets", "pipeline"))),
    Hook("ggraphs.incident_edges",
         ["graphforge.ggraphs:GGraph.incident_edges"],
         ("calls", "self_s", "edges", "incomplete_ratio"),
         after=_after_incident),
    Hook("ggraphs.construct",
         [b for name in CONSTRUCTIONS
          for b in _everywhere(name, ("ggraphs", "pipeline"))],
         ("self_s",)),
    Hook("analysis.ball_view", _everywhere("ball_view", ("analysis", "pipeline")),
         ("calls", "self_s", "vertices", "incomplete_vertices"),
         after=_after_ball_view),
    Hook("analysis.distances_from",
         ["graphforge.analysis:BallView.distances_from"]),
    Hook("analysis.angle_table",
         _everywhere("angle_table", ("analysis", "pipeline"))),
    Hook("analysis.fineness_probe",
         _everywhere("fineness_probe", ("analysis", "pipeline")), ("self_s",)),
    Hook("analysis.embedded_path_count",
         _everywhere("embedded_path_count", ("analysis", "pipeline")),
         ("calls", "self_s", "paths"), after=_after_paths),
    Hook("analysis.delta_estimate",
         _everywhere("delta_estimate", ("analysis", "pipeline")),
         ("calls", "self_s", "vertices"), after=_after_delta),
    Hook("analysis.cut_vertex_audit",
         _everywhere("cut_vertex_audit", ("analysis", "pipeline")),
         ("self_s",)),
    # X1 counts calls that used the thread pool
    Hook("analysis.pmap", ["graphforge.analysis:pmap"],
         ("calls", "self_s", "threaded")),
    Hook("relpres.normalize",
         ["graphforge.relpres:RelPresentation.normalize"]),
    Hook("relpres.evaluate", ["graphforge.relpres:evaluate"]),
    Hook("relpres.dehn_bruteforce",
         _everywhere("dehn_bruteforce", ("relpres", "pipeline")), ("self_s",)),
    Hook("pipeline.validate_spec", ["graphforge.pipeline:validate_spec"],
         ("self_s",)),
    # run_pipeline and the step handlers' own code are reported together as
    # pipeline.self_s; each step's inclusive time as pipeline.step_s.<op>
    Hook("pipeline.run", ["graphforge.pipeline:run_pipeline",
                          "graphforge.cli:run_pipeline"], ()),
    Hook("pipeline.step", ["graphforge.pipeline:STEP_HANDLERS[*]"], (),
         label="key"),
    Hook("pipeline.to_json", ["graphforge.pipeline:RunReport.to_json"],
         ("self_s", "bytes"), after=_after_len),
)


def _resolve(binding):
    """(owner, name, raw attribute) for ``module:attr[.attr]``; raises
    ImportError, AttributeError or KeyError when it no longer exists."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def _strategy_label(cls):
    strategy = getattr(cls, "strategy", None)
    if isinstance(strategy, str):
        return strategy
    # the Restricted / Conjugate wrappers report their inner handle's
    # strategy per instance; label them by the wrapper
    return cls.__name__.removesuffix("Subgroup")


class Tracer:
    """Installs the hook table, aggregates records, restores originals."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._tables = []      # one record table per thread that ran a hook
        self._patches = []     # (owner, name, original) to restore
        self.missing = set()   # metrics with a binding that did not resolve
        self._inputs = {}      # id(group) -> (group, record, input words)
        self._root = None

    # -- per-thread state --------------------------------------------------

    def _frames(self):
        try:
            return self._local.frames
        except AttributeError:
            local = self._local
            local.frames = []
            local.recs = {}
            local.clock = (time.perf_counter
                           if threading.get_ident() == self._main
                           else time.thread_time)
            with self._lock:
                self._tables.append(local.recs)
            return local.frames

    def _record(self, key):
        recs = self._local.recs
        rec = recs.get(key)
        if rec is None:
            rec = recs[key] = [0, 0.0, 0.0, 0, 0]
        return rec

    # -- wrappers ----------------------------------------------------------
    #
    # A frame is [time of traced callees, record, called contains()].

    def _counter(self, fn, key):
        frames_of, record = self._frames, self._record

        def counted(*args, **kwargs):
            frames_of()
            record(key)[CALLS] += 1
            return fn(*args, **kwargs)
        return counted

    def _timer(self, fn, hook, label):
        local, frames_of, record = self._local, self._frames, self._record
        metric, after = hook.metric, hook.after
        by_class = hook.label == "class"
        marks_caller = metric == "subgroups.contains"
        counts_marks = metric == "gsets.elem_equal"
        inputs = self._inputs if metric == "groups.normalize" else None

        def timed(*args, **kwargs):
            frames = frames_of()
            rec = record((metric, type(args[0]).__name__ if by_class else label))
            if marks_caller and frames:
                frames[-1][2] = True
            frame = [0.0, rec, False]
            frames.append(frame)
            clock = local.clock
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                rec[CALLS] += 1
                rec[SELF] += dt - frame[0]
                rec[TOTAL] += dt
            if after is not None:
                after(rec, args, result)
            if counts_marks and frame[2]:
                rec[X1] += 1
            if inputs is not None:
                group, word = args[0], args[1]
                entry = inputs.get(id(group))
                if entry is None:
                    entry = inputs.setdefault(id(group), (group, rec, set()))
                entry[2].add(word if isinstance(word, (tuple, str))
                             else tuple(word))
            return result
        return timed

    def _pmap(self, fn, hook):
        local, frames_of, record = self._local, self._frames, self._record
        lock = self._lock

        def traced_pmap(row_fn, items, *args, **kwargs):
            frames = frames_of()
            owner = frames[-1][1] if frames else self._root
            items = list(items)
            parallel = args[0] if args else kwargs.get("parallel", False)
            pooled = [0.0]   # time of the rows that ran on pool threads

            def row(item):
                row_frames = frames_of()
                frame = [0.0, owner, False]
                row_frames.append(frame)
                clock = local.clock
                t0 = clock()
                try:
                    return row_fn(item)
                finally:
                    dt = clock() - t0
                    row_frames.pop()
                    with lock:
                        if row_frames:
                            row_frames[-1][0] += dt
                        else:
                            pooled[0] += dt
                        owner[SELF] += dt - frame[0]

            rec = record((hook.metric, None))
            frame = [0.0, rec, False]
            frames.append(frame)
            t0 = local.clock()
            try:
                return fn(row, items, *args, **kwargs)
            finally:
                dt = local.clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                rec[CALLS] += 1
                rec[SELF] += dt - frame[0] - pooled[0]
                rec[TOTAL] += dt
                if parallel and len(items) >= 2:
                    rec[X1] += 1
        return traced_pmap

    def _wrap(self, fn, hook, label):
        if hook.kind == "count":
            return self._counter(fn, (hook.metric, label))
        if hook.metric == "analysis.pmap":
            return self._pmap(fn, hook)
        return self._timer(fn, hook, label)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Wrap every binding of the table; unresolvable ones go to
        ``missing``."""
        wrapped = {}   # (original, label) -> wrapper, shared by re-exports
        for hook in self.hooks:
            for binding in hook.bindings:
                if binding.endswith("[*]"):
                    self._install_items(hook, binding[:-3])
                    continue
                try:
                    owner, name, raw = _resolve(binding)
                except (ImportError, AttributeError, KeyError):
                    self.missing.add(hook.metric)
                    continue
                label = _strategy_label(owner) \
                    if hook.label == "strategy" else None
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                key = (id(fn), label)
                if key not in wrapped:
                    wrapped[key] = self._wrap(fn, hook, label)
                new = wrapped[key]
                if isinstance(raw, classmethod):
                    new = classmethod(new)
                self._patches.append((owner, name, raw))
                setattr(owner, name, new)

    def _install_items(self, hook, binding):
        try:
            _, _, table = _resolve(binding)
        except (ImportError, AttributeError, KeyError):
            self.missing.add(hook.metric)
            return
        originals = dict(table)
        self._patches.append((table, None, originals))
        for key, fn in originals.items():
            table[key] = self._wrap(fn, hook, key)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            if name is None:
                owner.update(original)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- jobs --------------------------------------------------------------

    def job(self, run):
        """Run ``run()`` as one traced job under a root frame."""
        frames = self._frames()
        self._root = self._record(("job", None))
        frame = [0.0, self._root, False]
        frames.append(frame)
        t0 = time.perf_counter()
        try:
            return run()
        finally:
            dt = time.perf_counter() - t0
            frames.pop()
            self._root[CALLS] += 1
            self._root[SELF] += dt - frame[0]
            self._root[TOTAL] += dt
            # the groups die with the job; fold their distinct inputs now
            for _, rec, words in self._inputs.values():
                rec[X2] += len(words)
            self._inputs.clear()

    # -- results -----------------------------------------------------------

    def records(self):
        """Merged (metric, label) -> record over every thread."""
        merged = {}
        for table in self._tables:
            for key, rec in table.items():
                out = merged.setdefault(key, [0, 0.0, 0.0, 0, 0])
                for i, value in enumerate(rec):
                    out[i] += value
        return merged

    def metrics(self, job_times):
        """Per-job layer metrics over the traced jobs whose wall times are
        given; a row with an unresolved binding reads None."""
        recs = self.records()
        n = len(job_times)
        out = {}

        def value(rec, field, slot):
            if field == "calls":
                return rec[CALLS] / n
            if field == "self_s":
                return rec[SELF] / n
            if field == "repeat_ratio":   # share of calls on a seen input
                return 1 - rec[X2] / rec[CALLS] if rec[CALLS] else 0.0
            if field.endswith("_ratio"):
                return rec[slot] / rec[CALLS] if rec[CALLS] else 0.0
            return rec[slot] / n

        for hook in self.hooks:
            labelled = sorted((label, rec) for (m, label), rec in recs.items()
                              if m == hook.metric)
            if hook.label is None and not labelled:
                labelled = [(None, [0, 0.0, 0.0, 0, 0])]
            for label, rec in labelled:
                slots = iter((X1, X2))
                for field in hook.fields:
                    slot = None if field in ("calls", "self_s") else next(slots)
                    name = f"{hook.metric}.{field}"
                    if label is not None:
                        name += f".{label}"
                    out[name] = None if hook.metric in self.missing \
                        else value(rec, field, slot)

        steps = sorted((label, rec) for (m, label), rec in recs.items()
                       if m == "pipeline.step")
        for op, rec in steps:
            out[f"pipeline.step_s.{op}"] = rec[TOTAL] / n
        own = recs.get(("pipeline.run", None), [0, 0.0])[SELF] \
            + sum(rec[SELF] for _, rec in steps)
        out["pipeline.self_s"] = None \
            if self.missing & {"pipeline.run", "pipeline.step"} else own / n
        out["trace.self_sum_ratio"] = \
            sum(rec[SELF] for rec in recs.values()) / sum(job_times)
        return out
