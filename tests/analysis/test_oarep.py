"""Optimized Analyze Representation and _FusedOp tests (paper §3.2.3,
§3.3 / Figure 2)."""
import numpy as np
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.analysis.oarep import (FusedOp, MappingError,
                                  OptimizedAnalyzeRepresentation)
from repro.analysis.opdefs import OpClass
from repro.ir.builder import GraphBuilder
from repro.ir.tensor import DataType
from repro.models.registry import build_model


def conv_block():
    """conv -> bn -> relu -> conv -> add(residual) -> relu"""
    b = GraphBuilder("blk")
    x = b.input("x", (1, 8, 14, 14))
    c1 = b.conv(x, 8, 3, padding=1, name="conv1")
    bn = b.batchnorm(c1, name="bn1")
    r1 = b.relu(bn)
    c2 = b.conv(r1, 8, 3, padding=1, name="conv2")
    add = b.add(c2, x)
    r2 = b.relu(add)
    g = b.finish(r2)
    return g, dict(x=x, c1=c1, bn=bn, r1=r1, c2=c2, add=add, r2=r2)


def fresh_oar():
    g, t = conv_block()
    ar = AnalyzeRepresentation(g, DataType.FLOAT16)
    return OptimizedAnalyzeRepresentation(ar), ar, t


class TestSubgraphSearch:
    def test_finds_chain_by_io(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        assert [o.op_type for o in ops] == ["Conv", "BatchNormalization",
                                            "Relu"]

    def test_residual_subgraph(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["r1"], t["x"]], [t["r2"]])
        assert {o.op_type for o in ops} == {"Conv", "Add", "Relu"}

    def test_unknown_boundary_rejected(self):
        oar, ar, t = fresh_oar()
        with pytest.raises(MappingError, match="unknown boundary"):
            oar.get_subgraph_ops_by_io(["ghost"], [t["r1"]])

    def test_search_excludes_already_fused(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        oar.set_fused_op(ops, name="f1")
        with pytest.raises(MappingError, match="already belongs"):
            oar.get_subgraph_ops_by_io([t["x"]], [t["c2"]])


class TestAliases:
    def test_alias_resolution_in_search(self):
        oar, ar, t = fresh_oar()
        oar.set_tensor_alias("x_reformatted", t["x"])
        ops = oar.get_subgraph_ops_by_io(["x_reformatted"], [t["r1"]])
        assert len(ops) == 3

    def test_alias_chain(self):
        oar, ar, t = fresh_oar()
        oar.set_tensor_alias("a", t["x"])
        oar.set_tensor_alias("b", "a")
        assert oar.resolve("b") == t["x"]

    def test_alias_to_unknown_rejected(self):
        oar, ar, t = fresh_oar()
        with pytest.raises(MappingError, match="not a model tensor"):
            oar.set_tensor_alias("alias", "ghost")


class TestFusedOp:
    def test_fusion_replaces_units(self):
        oar, ar, t = fresh_oar()
        before = len(oar)
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        fused = oar.set_fused_op(ops, name="conv1+bn1+relu")
        assert len(oar) == before - 2
        assert fused in list(oar)
        assert fused.member_names == ["conv1", "bn1", ops[2].name]

    def test_fused_io_excludes_internals(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        fused = oar.set_fused_op(ops)
        assert t["x"] in fused.inputs
        assert fused.outputs == [t["r1"]]
        assert t["c1"] not in fused.inputs + fused.outputs

    def test_fused_flop_is_member_sum(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        expected = sum(op.cost().flop for op in ops)
        fused = oar.set_fused_op(ops)
        assert fused.cost().flop == pytest.approx(expected)

    def test_fused_memory_drops_intermediates(self):
        """The paper's key fusion rule: intermediate tensors stay on-chip."""
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        unfused = sum(op.cost().memory_bytes for op in ops)
        fused = oar.set_fused_op(ops)
        cost = fused.cost()
        assert cost.memory_bytes < unfused / 2
        # exactly: x read + weights read + r1 written
        x_b = ar.tensor(t["x"]).numel * 2
        r1_b = ar.tensor(t["r1"]).numel * 2
        w_b = sum(ar.tensor(i).numel * 2 for i in ops[0].inputs[1:])
        bn_b = sum(ar.tensor(i).numel * 2 for i in ops[1].inputs[1:])
        assert cost.read_bytes == pytest.approx(x_b + w_b + bn_b)
        assert cost.write_bytes == pytest.approx(r1_b)

    def test_folded_member_contributes_no_flop(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        plain = FusedOp(ops, oar).cost().flop
        oar2, ar2, t2 = fresh_oar()
        ops2 = oar2.get_subgraph_ops_by_io([t2["x"]], [t2["r1"]])
        folded = oar2.set_fused_op(ops2, folded=["bn1"]).cost().flop
        bn_flop = next(o for o in ops if o.op_type == "BatchNormalization"
                       ).cost().flop
        assert plain - folded == pytest.approx(bn_flop)

    def test_folded_weights_not_read(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        with_params = FusedOp(ops, oar).cost().read_bytes
        without = FusedOp(ops, oar, folded=["bn1"]).cost().read_bytes
        assert without < with_params

    def test_dominant_class(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        fused = oar.set_fused_op(ops)
        assert fused.op_class() is OpClass.CONV

    def test_multi_output_fusion(self):
        """A fused op whose internal tensor escapes becomes a second output."""
        b = GraphBuilder("g")
        x = b.input("x", (1, 4))
        r = b.relu(x)
        s = b.sigmoid(r)
        b.output(r)          # r escapes the would-be fusion
        g = b.finish(s)
        ar = AnalyzeRepresentation(g)
        oar = OptimizedAnalyzeRepresentation(ar)
        fused = oar.set_fused_op(list(ar.ops))
        assert set(fused.outputs) == {r, s}

    def test_empty_fusion_rejected(self):
        oar, ar, t = fresh_oar()
        with pytest.raises(MappingError):
            oar.set_fused_op([])

    def test_double_fusion_rejected(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        oar.set_fused_op(ops)
        with pytest.raises(MappingError):
            oar.set_fused_op(ops)

    def test_unit_by_output_after_fusion(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        fused = oar.set_fused_op(ops)
        assert oar.unit_by_output(t["bn"]) is fused
        assert oar.unit_by_output(t["r1"]) is fused

    def test_total_cost_with_fusion_below_unfused(self):
        oar, ar, t = fresh_oar()
        unfused_mem = oar.total_cost().memory_bytes
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        oar.set_fused_op(ops, folded=["bn1"])
        assert oar.total_cost().memory_bytes < unfused_mem


class TestUnitOrder:
    """``units`` is rebuilt from the node -> unit map; it must keep the
    order the original slice-replace bookkeeping produced."""

    @staticmethod
    def slice_replace(units, ops, fused):
        doomed = {id(op) for op in ops}
        first = min(i for i, u in enumerate(units) if id(u) in doomed)
        units = [u for u in units if id(u) not in doomed]
        units.insert(first, fused)
        return units

    @pytest.mark.parametrize("seed", range(8))
    def test_units_match_slice_replace_order(self, seed):
        ar = AnalyzeRepresentation(build_model("mobilenetv2-05"),
                                   DataType.FLOAT16)
        oar = OptimizedAnalyzeRepresentation(ar)
        expected = list(ar.ops)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(ar.ops))
        groups, i = [], 0
        while i < len(perm):
            size = int(rng.integers(1, 5))
            groups.append([ar.ops[j] for j in perm[i:i + size]])
            i += size
        for group in groups:
            if len(group) < 2:
                continue
            fused = oar.set_fused_op(group)
            expected = self.slice_replace(expected, group, fused)
            assert [id(u) for u in oar.units] == [id(u) for u in expected]
        assert len(oar) == len(expected)

    def test_units_cached_between_fusions(self):
        oar, ar, t = fresh_oar()
        units = oar.units
        assert oar.units is units
        oar.set_fused_op(oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]]))
        assert oar.units is not units


class TestFusionErrors:
    def test_op_of_other_representation_is_inactive(self):
        oar, ar, t = fresh_oar()
        _, other, _ = fresh_oar()
        with pytest.raises(MappingError, match="not an active unit"):
            oar.set_fused_op(other.ops[:2])

    def test_already_fused_op_rejected(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        oar.set_fused_op(ops[:2])
        with pytest.raises(MappingError, match="not an active unit"):
            oar.set_fused_op(ops[1:])

    def test_fused_unit_rejected_as_member(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        fused = oar.set_fused_op(ops)
        with pytest.raises(MappingError, match="unfused"):
            oar.set_fused_op([fused, ar.op_by_output(t["c2"])])

    def test_duplicate_op_rejected(self):
        oar, ar, t = fresh_oar()
        ops = oar.get_subgraph_ops_by_io([t["x"]], [t["r1"]])
        before = list(oar.units)
        with pytest.raises(MappingError, match="listed twice"):
            oar.set_fused_op(ops + ops[:1])
        assert oar.units == before
