"""Tests for selective / dynamic truncation policies."""
import numpy as np
import pytest

from repro.core import (
    AMRCutoffPolicy,
    FullPrecisionContext,
    GlobalPolicy,
    Mode,
    ModulePolicy,
    NoTruncationPolicy,
    PredicatePolicy,
    RaptorRuntime,
    ShadowContext,
    TruncatedContext,
    TruncationConfig,
)


@pytest.fixture()
def runtime():
    return RaptorRuntime("selective-test")


@pytest.fixture()
def cfg():
    return TruncationConfig.mantissa(8, exp_bits=8)


class TestNoTruncationPolicy:
    def test_always_full_precision(self, runtime):
        pol = NoTruncationPolicy(runtime=runtime)
        assert not pol.should_truncate(module="hydro", level=1, max_level=4)
        assert isinstance(pol.context_for(module="hydro"), FullPrecisionContext)

    @pytest.mark.parametrize("counting", [True, False])
    def test_full_context_on_another_runtime(self, runtime, counting):
        pol = NoTruncationPolicy(
            runtime=runtime, count_ops=counting, track_memory=counting, plane="instrumented"
        )
        own = pol.full_context("burn")
        assert pol.full_context("burn", runtime=runtime) is own
        other = RaptorRuntime("per-run")
        ctx = pol.full_context("burn", runtime=other)
        assert ctx is not own and ctx is not pol.full_context("burn", runtime=other)
        assert ctx.runtime is other and ctx.module == "burn"
        assert ctx.count_ops is counting and ctx.track_memory is counting
        ctx.add(np.ones(4), np.ones(4))
        assert runtime.ops.total == 0
        assert other.ops.total == (4 if counting else 0)


class TestGlobalPolicy:
    def test_truncates_everything(self, runtime, cfg):
        pol = GlobalPolicy(cfg, runtime=runtime)
        for level in (1, 2, 3, 4):
            assert pol.should_truncate(module="hydro", level=level, max_level=4)
        assert isinstance(pol.context_for(module="hydro", level=4, max_level=4), TruncatedContext)

    def test_noop_config_falls_back_to_full(self, runtime):
        pol = GlobalPolicy(TruncationConfig(), runtime=runtime)
        assert isinstance(pol.context_for(module="hydro"), FullPrecisionContext)

    def test_context_cache(self, runtime, cfg):
        pol = GlobalPolicy(cfg, runtime=runtime)
        assert pol.context_for(module="hydro") is pol.context_for(module="hydro")


class TestAMRCutoffPolicy:
    def test_m0_truncates_all_levels(self, runtime, cfg):
        pol = AMRCutoffPolicy(cfg, cutoff=0, runtime=runtime)
        assert all(pol.should_truncate(level=lv, max_level=4) for lv in range(1, 5))

    def test_m1_excludes_finest_level(self, runtime, cfg):
        pol = AMRCutoffPolicy(cfg, cutoff=1, runtime=runtime)
        assert pol.should_truncate(level=3, max_level=4)
        assert not pol.should_truncate(level=4, max_level=4)

    def test_m2_excludes_two_finest_levels(self, runtime, cfg):
        pol = AMRCutoffPolicy(cfg, cutoff=2, runtime=runtime)
        assert pol.should_truncate(level=2, max_level=4)
        assert not pol.should_truncate(level=3, max_level=4)
        assert not pol.should_truncate(level=4, max_level=4)

    def test_module_restriction(self, runtime, cfg):
        pol = AMRCutoffPolicy(cfg, cutoff=0, modules=["hydro"], runtime=runtime)
        assert pol.should_truncate(module="hydro", level=1, max_level=4)
        assert not pol.should_truncate(module="eos", level=1, max_level=4)

    def test_missing_amr_info_behaves_global(self, runtime, cfg):
        pol = AMRCutoffPolicy(cfg, cutoff=2, runtime=runtime)
        assert pol.should_truncate(module="hydro")

    def test_negative_cutoff_rejected(self, runtime, cfg):
        with pytest.raises(ValueError):
            AMRCutoffPolicy(cfg, cutoff=-1, runtime=runtime)

    def test_context_types_per_level(self, runtime, cfg):
        pol = AMRCutoffPolicy(cfg, cutoff=1, runtime=runtime)
        assert isinstance(pol.context_for(module="hydro", level=2, max_level=4), TruncatedContext)
        assert isinstance(pol.context_for(module="hydro", level=4, max_level=4), FullPrecisionContext)

    def test_describe(self, runtime, cfg):
        text = AMRCutoffPolicy(cfg, cutoff=2, modules=["hydro"], runtime=runtime).describe()
        assert "M-2" in text and "hydro" in text


class TestModulePolicy:
    def test_only_listed_modules_truncated(self, runtime, cfg):
        pol = ModulePolicy(cfg, modules=["eos"], runtime=runtime)
        assert pol.should_truncate(module="eos")
        assert not pol.should_truncate(module="hydro")
        assert not pol.should_truncate(module=None)

    def test_mem_mode_config_yields_shadow_context(self, runtime):
        cfg = TruncationConfig.mantissa(8, exp_bits=8, mode=Mode.MEM)
        pol = ModulePolicy(cfg, modules=["hydro"], runtime=runtime)
        assert isinstance(pol.context_for(module="hydro"), ShadowContext)


class TestPredicatePolicy:
    def test_state_dependent_truncation(self, runtime, cfg):
        # truncate only where the state reports a smooth solution
        pol = PredicatePolicy(
            cfg,
            lambda module, level, max_level, state: bool(state and state.get("smooth", False)),
            runtime=runtime,
        )
        assert pol.should_truncate(state={"smooth": True})
        assert not pol.should_truncate(state={"smooth": False})
        assert not pol.should_truncate(state=None)

    def test_time_dependent_truncation(self, runtime, cfg):
        pol = PredicatePolicy(
            cfg,
            lambda module, level, max_level, state: state is not None and state.get("t", 0.0) > 1.0,
            runtime=runtime,
        )
        assert not pol.should_truncate(state={"t": 0.5})
        assert pol.should_truncate(state={"t": 2.0})


class TestPolicyOpAccounting:
    def test_truncated_fraction_reflects_cutoff(self, runtime, cfg):
        """Coarser cutoffs must truncate a smaller share of the operations."""
        def run(cutoff):
            rt = RaptorRuntime()
            pol = AMRCutoffPolicy(TruncationConfig.mantissa(8, exp_bits=8), cutoff=cutoff, runtime=rt)
            # synthetic workload: blocks at levels 1..4, more blocks at finer levels
            for level, nblocks in ((1, 1), (2, 2), (3, 4), (4, 8)):
                for _ in range(nblocks):
                    ctx = pol.context_for(module="hydro", level=level, max_level=4)
                    ctx.add(np.ones(100), 1.0)
            return rt.ops.truncated_fraction

        fractions = [run(c) for c in (0, 1, 2, 3)]
        assert fractions[0] == 1.0
        assert all(fractions[i] > fractions[i + 1] for i in range(3))
