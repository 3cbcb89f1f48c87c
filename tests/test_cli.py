"""Benchmark harness tests: flags, exit codes and the result record."""

import csv
import json
import math
import re
import time
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import airmg.cli
from airmg import SetupConfig, SolveConfig, read_matrix_market, setup
from airmg import (AdvectionProblem, build_advection_1d, build_advection_2d,
                   richardson_solve)
from airmg.cli import (SETUP_FLAG_MAP, SOLVE_FLAG_MAP, main, _build_parser,
                       _config_from_args)
from airmg import hierarchy
from airmg.polynomial import COEFF_KINDS, POLY_KINDS
from cycle_orders import assert_same_bits, cycle_orders, reindexed


def run_cli(tmp_path, *args, name='out.json'):
    out = tmp_path / name
    code = main([*args, '--output', str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    return code, payload


def test_cyclic_reduction_example(tmp_path):
    code, res = run_cli(tmp_path, '--dim', '1', '--n', '256', '--vx', '1',
                        '--strong-threshold', '0.5', '--poly-order', '1')
    assert code == 0
    assert res['solve']['converged']
    assert res['solve']['iterations'] <= 2


def test_2d_defaults_schema(tmp_path):
    code, res = run_cli(tmp_path, '--dim', '2', '--n', '24')
    assert code == 0
    assert (res['problem']['vx'], res['problem']['vy']) == (
        float(np.cos(np.pi / 4)), float(np.sin(np.pi / 4)))
    assert 'cycle_complexity' in res['summary']
    assert 'storage_complexity' in res['summary']
    assert res['problem']['n'] == 24 * 24
    assert res['schema_version'] == 13
    assert not any('nnz_smoother_assembled' in level
                   for level in res['summary']['levels'])
    assert res['solve']['residual_history'][0] > 0
    breakdown = res['timings']['setup_breakdown']
    for phase in ('cf_split', 'prolongator', 'polynomial', 'spgemm_R',
                  'spgemm_coarse', 'extract', 'drop', 'truncation'):
        assert phase in breakdown


def test_record_holds_coarse_roots_and_convergence_factor(tmp_path):
    code, res = run_cli(tmp_path, '--dim', '2', '--n', '24')
    assert code == 0
    coarsest = res['summary']['coarsest']
    assert coarsest['solver_kind'] == 'newton'
    assert coarsest['solver_roots'] >= coarsest['solver_effective_order'] + 1
    solve = res['solve']
    h = solve['residual_history']
    assert solve['convergence_factor'] == pytest.approx(
        (h[-1] / h[0]) ** (1.0 / solve['iterations']), rel=1e-12)


@pytest.mark.parametrize('flag, kind', [
    *(('--inverse-type', kind) for kind in COEFF_KINDS),
    *(('--coarsest-inverse-type', kind) for kind in POLY_KINDS)])
def test_record_names_kinds_as_configured(tmp_path, flag, kind):
    code, res = run_cli(tmp_path, '--n', '16', flag, kind)
    assert code == 0
    config, summary = res['setup_config'], res['summary']
    assert summary['levels']
    for level in summary['levels']:
        assert level['smoother_kind'] == config['inverse_type']
    assert summary['coarsest']['solver_kind'] == config[
        'coarsest_inverse_type']


def test_flag_maps_cover_configs_exactly():
    setup_fields = {f.name for f in fields(SetupConfig)}
    solve_fields = {f.name for f in fields(SolveConfig)}
    assert set(SETUP_FLAG_MAP.values()) == setup_fields
    assert set(SOLVE_FLAG_MAP.values()) == solve_fields
    assert len(SETUP_FLAG_MAP) == len(setup_fields)
    assert len(SOLVE_FLAG_MAP) == len(solve_fields)
    parser = _build_parser()
    known = {opt for action in parser._actions
             for opt in action.option_strings}
    for flag, name in {**SETUP_FLAG_MAP, **SOLVE_FLAG_MAP}.items():
        assert flag == '--' + name.replace('_', '-'), (flag, name)
        assert flag in known, f'{flag} missing from the parser'


def _base_type(f):
    """``X`` for a field annotated ``X`` or ``X | None``."""
    return (typing.get_args(f.type) or (f.type,))[0]


def _non_default(f):
    """A valid command-line value for field ``f`` other than its default."""
    if f.type is str:
        choices = {'inverse_type': COEFF_KINDS,
                   'coarsest_inverse_type': POLY_KINDS}
        return next(c for c in choices.get(f.name, ('ff',)) if c != f.default)
    return _base_type(f)(3 if f.default is None else f.default + 1)


@pytest.mark.parametrize('cls, flag_map', [(SetupConfig, SETUP_FLAG_MAP),
                                           (SolveConfig, SOLVE_FLAG_MAP)])
def test_generated_flags_set_their_fields(cls, flag_map):
    parser = _build_parser()
    flag_of = {name: flag for flag, name in flag_map.items()}
    for f in fields(cls):
        flag = flag_of[f.name]
        if f.type is bool:
            negated = '--no-' + flag[2:]
            for argv, value in (([flag], True), ([negated], False)):
                got = getattr(_config_from_args(parser.parse_args(argv), cls),
                              f.name)
                assert got is value, (argv, got)
            continue
        value = _non_default(f)
        got = getattr(_config_from_args(parser.parse_args([flag, str(value)]),
                                        cls), f.name)
        assert got == value and type(got) is _base_type(f), (flag, got)
    assert _config_from_args(parser.parse_args([]), cls) == cls()


def test_none_unsets_optional_fields(capsys):
    parser = _build_parser()
    args = parser.parse_args(['--auto-truncate-tol', 'none'])
    cfg = _config_from_args(args, SetupConfig)
    assert cfg.auto_truncate_tol is None
    assert main(['--n', '8', '--auto-truncate-tol', 'None']) == 1
    assert "invalid float value: 'None'" in capsys.readouterr().err


def test_removed_flags_are_unknown():
    for argv in (['--ddc-bins', '10'], ['--lx', '2'], ['--ly', '2'],
                 ['--no-auto-truncate'], ['--second-solve'],
                 ['--no-second-solve'], ['--compare-inverse-types'],
                 ['--auto-truncate-start-level', '3'], ['--nx', '8'],
                 ['--ny', '8'], ['--angle', '0.5'],
                 ['--export-matrix', 'A.mtx'], ['--matrix-free-polys'],
                 ['--no-matrix-free-polys']):
        assert main(['--n', '8', *argv]) == 1, argv


@pytest.mark.parametrize('argv, message', [
    (['--dim', '1', '--vx', '1', '--vy', '5'],
     '--vy cannot be combined with --dim 1'),
    (['--repeats', '-1'], '--repeats must be non-negative'),
])
def test_overriding_flags_are_refused(tmp_path, capsys, argv, message):
    code, res = run_cli(tmp_path, '--n', '16', *argv)
    assert code == 1 and res is None
    assert f'error: {message}' in capsys.readouterr().err


@pytest.mark.parametrize('argv, velocity', [(['--vx', '1'], (1.0, 0.0)),
                                            (['--vy', '2'], (0.0, 2.0))])
def test_velocity_component_not_given_is_zero(tmp_path, argv, velocity):
    code, res = run_cli(tmp_path, '--n', '16', *argv)
    assert code == 0
    assert (res['problem']['vx'], res['problem']['vy']) == velocity


@pytest.mark.parametrize('value', [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize('cls, name', [
    (cls, f.name) for cls in (SetupConfig, SolveConfig) for f in fields(cls)
    if float in (typing.get_args(f.type) or (f.type,))])
def test_non_finite_settings_are_refused(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value}).validate()


@pytest.mark.parametrize('flag, value', [
    ('--atol', 'inf'), ('--rtol', 'nan'), ('--auto-truncate-tol', 'nan'),
    ('--a-drop', 'nan')])
def test_non_finite_flags_exit_1(tmp_path, capsys, flag, value):
    code, res = run_cli(tmp_path, '--n', '16', flag, value)
    assert code == 1 and res is None
    assert f'error: {flag[2:].replace("-", "_")}' in capsys.readouterr().err


def test_kind_choices_come_from_the_polynomial_kinds(capsys):
    choices = {action.dest: action.choices
               for action in _build_parser()._actions}
    assert tuple(choices['inverse_type']) == COEFF_KINDS
    assert tuple(choices['coarsest_inverse_type']) == POLY_KINDS
    assert SETUP_FLAG_MAP['--a-lump'] == 'a_lump'
    for flag in ('--inverse-type', '--coarsest-inverse-type'):
        assert main(['--n', '8', flag, 'bogus']) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / 'README.md'


def _readme_flag_rows():
    """``(flag, config field, default)`` cells of the README flag table."""
    rows = []
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip('|').split('|')]
        if len(cells) == 4 and cells[0].startswith('`--'):
            rows.append((cells[0], cells[1].strip('`'), cells[2]))
    return rows


def _readme_flag_defaults():
    """``{config field: default cell}`` from the README flag reference."""
    return {name: default for _, name, default in _readme_flag_rows()}


def _flags_named(text):
    """Option strings named in ``text``; ``--[no-]x`` names both forms."""
    named = set()
    for negatable, name in re.findall(r'(?<![\w-])--(\[no-\])?([a-z][\w-]*)',
                                      text):
        named.add('--' + name)
        if negatable:
            named.add('--no-' + name)
    return named


def test_readme_flag_section_matches_parser():
    """The flag table has one row per config field naming exactly its flags,
    and the command-line section names every parser option and no other."""
    parser = _build_parser()
    flags_of = {action.dest: set(action.option_strings)
                for action in parser._actions}
    rows = _readme_flag_rows()
    assert sorted(name for _, name, _ in rows) == sorted(
        f.name for cls in (SetupConfig, SolveConfig) for f in fields(cls))
    for flag_cell, name, _ in rows:
        assert _flags_named(flag_cell) == flags_of[name], name
    section = README.read_text().split('\n## Benchmark command line\n')[1]
    section = section.split('\n## ')[0]
    options = set().union(*flags_of.values()) - {'-h', '--help'}
    assert _flags_named(section) == options


def test_readme_schema_heading_names_the_schema_version():
    headings = re.findall(r'^### Result schema \(version (\d+)\)$',
                          README.read_text(), flags=re.MULTILINE)
    assert headings == [str(airmg.cli.SCHEMA_VERSION)]


def test_readme_flag_defaults_match_configs():
    table = _readme_flag_defaults()
    for config in (SetupConfig(), SolveConfig()):
        for f in fields(config):
            value = getattr(config, f.name)
            cell = table[f.name]
            if value is None:
                continue  # described in words, such as 'auto'
            if isinstance(value, bool):
                assert cell == ('on' if value else 'off'), f.name
            elif isinstance(value, str):
                assert cell == f'`{value}`', f.name
            else:
                assert float(cell) == value, f.name


def test_config_error_exit_code(tmp_path):
    code, _ = run_cli(tmp_path, '--strong-threshold', '1.5', '--n', '8')
    assert code == 1
    code, _ = run_cli(tmp_path, '--smooth-type', 'fcf', '--n', '8')
    assert code == 1


def test_unknown_flag_exit_code():
    assert main(['--does-not-exist', '3']) == 1


def test_cycle_complexity_counts_the_configured_smooths(tmp_path):
    # The record's cycle complexity describes the cycle the solve ran: it is
    # the solve's flops per cycle over one top-grid SpMV.
    complexities = []
    for smooth_type in ('f', 'ff', 'fff'):
        code, res = run_cli(tmp_path, '--n', '32', '--smooth-type',
                            smooth_type)
        assert code == 0
        summary, solve = res['summary'], res['solve']
        assert (summary['cycle_complexity']
                == solve['flops_per_cycle'] / (2 * summary['nnz_top']))
        assert res['setup_config']['smooth_type'] == smooth_type
        assert 'f_smooth_its' not in res['solve_config']
        complexities.append(summary['cycle_complexity'])
    assert complexities == sorted(set(complexities))


def test_smooth_count_is_a_setup_setting(tmp_path, capsys):
    assert main(['--n', '8', '--f-smooth-its', '2']) == 1
    assert 'unrecognized arguments' in capsys.readouterr().err
    for smooth_type in ('c', 'fc', ''):
        code, _ = run_cli(tmp_path, '--n', '8', '--smooth-type', smooth_type)
        assert code == 1
        assert 'C-point and FCF smoothing' in capsys.readouterr().err


def test_unwritable_output_exit_code(tmp_path):
    code = main(['--n', '8', '--output',
                 str(tmp_path / 'missing_dir' / 'out.json')])
    assert code == 1


def test_nonconvergence_exit_code(tmp_path):
    code, res = run_cli(tmp_path, '--n', '48', '--max-iters', '1',
                        '--rtol', '1e-10', '--poly-order', '1')
    assert code == 2
    assert not res['solve']['converged']


def test_json_deterministic_except_wall_times(tmp_path):
    args = ['--n', '32', '--seed', '7']
    _, first = run_cli(tmp_path, *args, name='a.json')
    _, second = run_cli(tmp_path, *args, name='b.json')
    first.pop('timings')
    second.pop('timings')
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)


@pytest.mark.parametrize('argv, build, setup_cfg', [
    (['--n', '24'],
     lambda: build_advection_2d(AdvectionProblem(
         nx=24, ny=24, vx=np.cos(np.pi / 4), vy=np.sin(np.pi / 4))),
     SetupConfig()),
    (['--dim', '1', '--n', '256', '--vx', '1', '--strong-threshold', '0.5',
      '--poly-order', '1'],
     lambda: (build_advection_1d(256, 1.0), np.zeros(256)),
     SetupConfig(strong_threshold=0.5, poly_order=1)),
])
def test_record_residual_history_is_exact(tmp_path, argv, build, setup_cfg):
    """The record's residual history is the library's, float for float."""
    code, res = run_cli(tmp_path, *argv)
    assert code == 0
    A, b = build()
    _, stats = richardson_solve(setup(A, setup_cfg), b, np.ones(A.nrows),
                                SolveConfig())
    assert res['solve']['residual_history'] == [
        float(r) for r in stats.residual_history]


def test_export_matrix_roundtrip(tmp_path):
    ops = tmp_path / 'ops'
    code = main(['--dim', '1', '--n', '16', '--dump-operators', str(ops),
                 '--output', str(tmp_path / 'o.json'),
                 '--strong-threshold', '0.5'])
    assert code == 0
    A = read_matrix_market(ops / 'top_A.mtx')
    assert A.nrows == 16 and A.nnz == 31


def test_system_is_built_once_per_run(tmp_path, monkeypatch):
    built = []
    real = airmg.cli._build_system

    def counting(problem):
        built.append(problem)
        return real(problem)

    monkeypatch.setattr(airmg.cli, '_build_system', counting)
    code, res = run_cli(tmp_path, '--n', '16',
                        '--dump-operators', str(tmp_path / 'ops'))
    assert code == 0
    assert len(built) == 1
    assert read_matrix_market(tmp_path / 'ops' / 'top_A.mtx').nrows == 16 * 16
    assert res['problem']['n'] == 256


def test_setup_is_timed_cold(tmp_path, monkeypatch):
    # Setup runs once, on the problem matrix.
    seen = []

    def recording_setup(A, cfg):
        seen.append(A.nrows)
        return setup(A, cfg)

    monkeypatch.setattr(airmg.cli, 'setup', recording_setup)
    code, res = run_cli(tmp_path, '--n', '16')
    assert code == 0 and seen == [256]


def test_record_holds_ddc_passes(tmp_path):
    code, res = run_cli(tmp_path, '--n', '32')
    assert code == 0
    ddc_its = res['setup_config']['ddc_its']
    assert ddc_its == 2
    for level in res['summary']['levels']:
        passes = level['ddc_passes']
        assert len(passes) == ddc_its
        first, second = passes
        assert second['n_f_before'] == (first['n_f_before']
                                        - first['converted'])
        assert set(first) == {'n_f_before', 'converted', 'ratio_min',
                              'ratio_max', 'ratio_mean', 'cut'}
    assert any(p['converted'] for level in res['summary']['levels']
               for p in level['ddc_passes'])


def test_dump_operators_and_cf_diagnostics(tmp_path):
    ops = tmp_path / 'ops'
    diag = tmp_path / 'diag'
    code = main(['--n', '16', '--dump-operators', str(ops),
                 '--cf-diagnostics', str(diag),
                 '--output', str(tmp_path / 'o.json')])
    assert code == 0
    assert (ops / 'top_A.mtx').exists()
    assert (ops / 'coarsest_A.mtx').exists()
    assert (ops / 'level0_R.mtx').exists()
    assert (ops / 'level0_P.mtx').exists()
    labels = list(csv.reader((diag / 'cf_labels.csv').open()))
    assert labels[0] == ['level', 'node', 'label']
    assert {row[2] for row in labels[1:]} <= {'F', 'C'}
    hist = list(csv.reader((diag / 'ddc_ratio_histograms.csv').open()))
    assert hist[0] == ['level', 'bin_lo', 'bin_hi', 'count']


def test_dumped_prolongators_are_the_ones_setup_used(tmp_path, monkeypatch):
    # The hierarchy keeps no P; the dump rebuilds it from A_fc and the split
    # in each level's cycle numbering, with setup's choice among exactly
    # tied couplings, so it is setup's P under the level permutations.
    used, recorded = [], []
    build = hierarchy.build_prolongation
    restrict = hierarchy.build_restriction

    def recording(A_fc, split):
        used.append(build(A_fc, split))
        return used[-1]

    def recording_restriction(*args, **kwargs):
        out = restrict(*args, **kwargs)
        recorded.append((args[1],) + tuple(out))
        return out

    monkeypatch.setattr(hierarchy, 'build_prolongation', recording)
    monkeypatch.setattr(hierarchy, 'build_restriction', recording_restriction)
    ops = tmp_path / 'ops'
    code, res = run_cli(tmp_path, '--n', '32', '--dump-operators', str(ops))
    assert code == 0
    assert len(used) == res['summary']['num_levels'] > 0
    assert not (ops / f'level{len(used)}_P.mtx').exists()
    _, sigma = cycle_orders(recorded)
    ties = 0
    for k, (P, (_, _, _, A_fc, _)) in enumerate(zip(used, recorded)):
        assert_same_bits(read_matrix_market(ops / f'level{k}_P.mtx'),
                         reindexed(P, sigma[k], sigma[k + 1]))
        absv = np.abs(A_fc.to_dense())
        ties += int(np.sum(np.sum(absv == absv.max(axis=1, keepdims=True),
                                  axis=1) > 1))
    # Exactly tied couplings occur here, so the ties are part of the check.
    assert ties > 0


def test_dumped_order_maps_the_problem_onto_level_0(tmp_path):
    # ``top_A`` in the dumped level-0 order leads with level 0's A_ff block,
    # then the stored A_fc, and the CF labels give level 0 in the problem's
    # numbering: its F nodes are the first n_f entries of the order.  The
    # Arnoldi smoother has degree 0 there, so the block (diagonal) is not
    # stored; the Neumann smoother has degree 6 and keeps it.
    for inverse_type in ('arnoldi', 'neumann'):
        ops, diag = tmp_path / inverse_type, tmp_path / f'{inverse_type}_cf'
        code, res = run_cli(tmp_path, '--n', '24', '--dump-operators',
                            str(ops), '--cf-diagnostics', str(diag),
                            '--inverse-type', inverse_type)
        assert code == 0
        order = np.loadtxt(ops / 'level0_order.txt', dtype=np.intp)
        top = read_matrix_market(ops / 'top_A.mtx')
        assert np.array_equal(np.sort(order), np.arange(top.nrows))
        n_f = res['summary']['levels'][0]['n_f']
        lead = top.to_dense()[np.ix_(order, order)][:n_f]
        A_fc = read_matrix_market(ops / 'level0_A_fc.mtx')
        assert np.array_equal(lead[:, n_f:], A_fc.to_dense())
        if inverse_type == 'arnoldi':
            assert res['summary']['levels'][0]['nnz_A_ff'] is None
            assert not (ops / 'level0_A_ff.mtx').exists()
            assert np.array_equal(lead[:, :n_f], np.diag(np.diag(lead)))
        else:
            A_ff = read_matrix_market(ops / 'level0_A_ff.mtx')
            assert A_ff.nrows == n_f
            assert np.array_equal(lead[:, :n_f], A_ff.to_dense())
        rows = list(csv.reader((diag / 'cf_labels.csv').open()))[1:]
        level0 = [(int(node), label) for level, node, label in rows
                  if level == '0']
        assert [node for node, _ in level0] == list(range(top.nrows))
        f_nodes = [node for node, label in level0 if label == 'F']
        assert f_nodes == sorted(order[:n_f])
        level1 = [label for level, _, label in rows if level == '1']
        n_f1 = res['summary']['levels'][1]['n_f']
        assert level1 == ['F'] * n_f1 + ['C'] * (len(level1) - n_f1)
        hist = list(csv.reader((diag / 'ddc_ratio_histograms.csv').open()))
        kept = {str(k) for k, level in enumerate(res['summary']['levels'])
                if level['nnz_A_ff'] is not None}
        assert {row[0] for row in hist[1:]} == kept
        assert ('0' in kept) == (inverse_type == 'neumann')


def test_chain_levels_with_no_fine_block_dump_and_diagnose(tmp_path):
    # Every level of the 1-D chain smooths with a degree-0 polynomial and
    # keeps no A_ff: the record says null, the dump writes no A_ff file and
    # the diagnostics no histogram rows, while each level's R, P and A_fc
    # and its CF labels are still written.
    ops, diag = tmp_path / 'ops', tmp_path / 'diag'
    code, res = run_cli(tmp_path, '--dim', '1', '--n', '256', '--vx', '1',
                        '--dump-operators', str(ops),
                        '--cf-diagnostics', str(diag))
    assert code == 0
    levels = res['summary']['levels']
    assert len(levels) > 1
    for k, level in enumerate(levels):
        assert level['nnz_A_ff'] is None
        assert level['smoother_effective_order'] == 0
        assert level['ddc_passes'][-1]['ratio_max'] == 0
        assert not (ops / f'level{k}_A_ff.mtx').exists()
        for name in ('R', 'P', 'A_fc'):
            assert (ops / f'level{k}_{name}.mtx').exists()
    hist = list(csv.reader((diag / 'ddc_ratio_histograms.csv').open()))
    assert hist == [['level', 'bin_lo', 'bin_hi', 'count']]
    labels = list(csv.reader((diag / 'cf_labels.csv').open()))[1:]
    assert {row[0] for row in labels} == {str(k) for k in range(len(levels))}


def test_repeats_and_second_solve_controls(tmp_path):
    code, res = run_cli(tmp_path, '--n', '16', '--repeats', '3')
    assert code == 0
    assert len(res['timings']['repeat_seconds']) == 3
    assert res['timings']['solve_seconds'] == res['timings']['repeat_seconds'][-1]
    code, res = run_cli(tmp_path, '--n', '16', '--repeats', '0',
                        name='cold.json')
    assert code == 0
    assert res['timings']['repeat_seconds'] == []
    assert (res['timings']['solve_seconds']
            == res['timings']['first_solve_seconds'])


def test_setup_breakdown_sums_to_total():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=96, ny=96, vx=vx, vy=vy))
    t0 = time.perf_counter()
    H = setup(A, SetupConfig())
    total = time.perf_counter() - t0
    covered = sum(H.setup_breakdown.values())
    assert covered <= total
    assert covered >= 0.95 * total
