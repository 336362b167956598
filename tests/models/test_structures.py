"""Architecture-structure tests for the NLP/diffusion models and the
peak-test pseudo model."""
import numpy as np
import pytest

from repro.analysis.arep import AnalyzeRepresentation
from repro.models import (distilbert_base, peak_test_model, sd_unet,
                          sd_unet_eval)


class TestDistilBert:
    @pytest.fixture(scope="class")
    def graph(self):
        return distilbert_base(batch_size=1, seq_len=128)

    def test_six_encoder_layers(self, graph):
        hist = graph.op_type_histogram()
        # post-norm: 2 LayerNorms per layer + 1 embedding LN
        assert hist["LayerNormalization"] == 2 * 6 + 1
        assert hist["Softmax"] == 6

    def test_embeddings_are_gathers(self, graph):
        gathers = [n for n in graph.nodes if n.op_type == "Gather"]
        assert len(gathers) >= 2   # word + position tables
        vocab_table = graph.initializers["embeddings/word_embeddings"]
        assert vocab_table.info.shape == (30522, 768)

    def test_input_is_int64_ids(self, graph):
        from repro.ir.tensor import DataType
        assert graph.inputs[0].dtype is DataType.INT64
        assert graph.inputs[0].shape == (1, 128)

    def test_flop_quadratic_in_sequence(self):
        s1 = AnalyzeRepresentation(
            distilbert_base(seq_len=128)).total_cost().flop
        s2 = AnalyzeRepresentation(
            distilbert_base(seq_len=256)).total_cost().flop
        # attention adds a quadratic term: more than 2x, less than 4x
        assert 2.0 < s2 / s1 < 4.0


class TestSDUNet:
    @pytest.fixture(scope="class")
    def graph(self):
        return sd_unet(batch_size=1, latent_size=32)

    def test_inputs(self, graph):
        names = {t.name: t for t in graph.inputs}
        assert names["latent"].shape == (1, 4, 32, 32)
        assert names["context"].shape == (1, 77, 768)
        assert names["t_embed"].shape == (1, 320)

    def test_output_matches_latent(self, graph):
        assert graph.outputs[0].shape == (1, 4, 32, 32)

    def test_unet_shape_symmetry(self, graph):
        """Encoder downsamples 3x, decoder upsamples 3x."""
        downs = [n for n in graph.nodes if n.op_type == "Conv"
                 and n.ints_attr("strides") == (2, 2)]
        ups = [n for n in graph.nodes if n.op_type == "Resize"]
        assert len(downs) == 3
        assert len(ups) == 3

    def test_cross_attention_blocks_present(self, graph):
        # attention at 3 encoder levels x2, 3 decoder levels x3, +1 mid
        softmaxes = graph.op_type_histogram()["Softmax"]
        assert softmaxes == 2 * (2 * 3 + 3 * 3 + 1)  # self+cross per block

    def test_groupnorm_everywhere(self, graph):
        assert graph.op_type_histogram()["GroupNormalization"] > 30

    def test_eval_configuration(self):
        g = sd_unet_eval(batch_size=2, latent_size=64)
        assert g.inputs[0].shape == (2, 4, 64, 64)


class TestPeakTestModel:
    def test_contains_requested_stages(self):
        g = peak_test_model(matmul_sizes=(64, 128), copy_mbytes=(4,))
        hist = g.op_type_histogram()
        assert hist["MatMul"] == 2
        buffers = [i for i in g.initializers.values()
                   if i.info.numel * 4 >= 4 * 1024 * 1024]
        assert buffers, "the copy stage needs a megabyte-scale buffer"

    def test_no_dead_stages(self):
        g = peak_test_model(matmul_sizes=(64,), copy_mbytes=(4,))
        # every node feeds a graph output: walk back from the outputs
        producers = g.producer_map()
        live, stack = set(), list(g.output_names)
        while stack:
            node = producers.get(stack.pop())
            if node is not None and id(node) not in live:
                live.add(id(node))
                stack.extend(node.present_inputs)
        assert len(live) == len(g)

    def test_probe_finds_matrix_and_stream_layers(self):
        from repro.core.profiler import Profiler
        report = Profiler("trt-sim", "a100", "fp16").profile(
            peak_test_model())
        classes = {l.op_class for l in report.layers}
        assert "matmul" in classes
        assert "elementwise" in classes
