"""In-memory span tracer around airmg's public layer functions.

``Tracer.installed()`` wraps every function in the ``__all__`` of the layer
modules and rebinds each wrapper under every name that any ``airmg`` module
holds for the original.  ``hierarchy``, ``polynomial`` and ``solve`` import
kernels by name, so rebinding only the defining module would miss their
calls; rebinding them all also puts nested and recursive calls
(``spgemm_fixed_sparsity`` -> ``spgemm``, ``cf_split`` -> ``pmisr``,
``vcycle`` -> ``vcycle``) in spans.  The originals are restored on exit, so
untraced runs execute airmg unmodified.

A span is ``[name, start, end, parent, info]``; spans are appended on entry,
so a parent always precedes its children.  Work a hook does after a call
(counting flops, dropped entries) is recorded as a ``trace.hook`` span, so it
is charged neither to the layer nor to its caller.
"""

import contextlib
import functools
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ('sparse', 'splitting', 'polynomial', 'hierarchy', 'solve')

HOOK = 'trace.hook'
ROOT = 'bench.round'


def _spmv_info(args):
    A = args[0]
    return id(A), A.nnz


def _apply_info(args):
    return (id(args[1]),)


def _level_info(args):
    return (args[1],)


def _spgemm_info(args, out):
    """Output nnz and the flops of the structural product, computed from the
    input patterns: ``2 * sum_k nnz(A[:, k]) * nnz(B[k, :])``."""
    A, B = args[0], args[1]
    col_counts = np.bincount(A.col_indices, minlength=A.ncols)
    return out.nnz, 2 * int(col_counts @ np.diff(B.row_offsets))


def _nnz_info(args, out):
    return (out.nnz,)


def _diagonal_count(A):
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_offsets))
    return int(np.count_nonzero(A.col_indices == rows))


def _drop_info(args, out):
    """Entries removed; diagonal entries inserted by lumping are not
    counted as kept entries of the input."""
    A = args[0]
    if out is A:
        return (0,)
    inserted = _diagonal_count(out) - _diagonal_count(A)
    return (A.nnz - (out.nnz - inserted),)


def _accepted_info(args, out):
    return (out is not None,)


# Cheap facts about the arguments, taken before the call starts.
PRE_HOOKS = {
    'sparse.spmv': _spmv_info,
    'polynomial.apply_matrix_free': _apply_info,
    'solve.vcycle': _level_info,
}
# Facts needing the result, taken after the call ends in a ``trace.hook``
# span.  All these functions take their matrices positionally in airmg.
POST_HOOKS = {
    'sparse.spgemm': _spgemm_info,
    'sparse.spgemm_fixed_sparsity': _nnz_info,
    'sparse.drop_and_lump': _drop_info,
    'hierarchy.try_truncate': _accepted_info,
}


class Tracer:
    """Records spans of airmg layer calls while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        pre = PRE_HOOKS.get(name)
        post = POST_HOOKS.get(name)

        # Span bookkeeping is inlined (not shared with ``span``) to keep the
        # per-call cost low: ``spmv`` runs tens of thousands of times.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, pre(args) if pre else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post is not None:
                rec[4] = post(args, out)
                spans.append([HOOK, rec[2], perf_counter(), parent, None])
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (the root of a round)."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every airmg reference to a layer function to its wrapper
        for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f'airmg.{layer}']
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType):
                    wrappers[id(fn)] = (fn, self._wrap(f'{layer}.{attr}', fn))
        patched = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != 'airmg' and not mod_name.startswith('airmg.'):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = wrappers.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def self_times(spans):
    """Per-span duration and self time (duration minus child durations)."""
    start = np.fromiter((s[1] for s in spans), dtype=np.float64,
                        count=len(spans))
    end = np.fromiter((s[2] for s in spans), dtype=np.float64,
                      count=len(spans))
    parent = np.fromiter((s[3] for s in spans), dtype=np.int64,
                         count=len(spans))
    duration = end - start
    child = np.zeros(len(spans))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration, duration - child
