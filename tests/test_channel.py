"""Probability/channel primitives and the channel file format."""

import copy
import json

import numpy as np
import pytest

import infoenergy as ie
from conftest import (BSC_DOC, MALFORMED_CHANNEL_FILES, make_binary_adder,
                      negative_entry_doc)


class TestConstructors:
    def test_alphabet_rejects_duplicates(self):
        # As numpy.unique counts them: two NaNs are one symbol, and so are -0.0 and 0.0.
        for symbols in ([1.0, 1.0], [], [np.nan, np.nan], [0.0, -0.0]):
            with pytest.raises(ValueError):
                ie.Alphabet(symbols)
        assert len(ie.Alphabet([1.0, np.nan])) == 2

    def test_pmf_normalizes_within_tolerance(self):
        p = ie.Pmf([0.5, 0.5 + 5e-10])
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_pmf_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ie.Pmf([0.6, 0.6])
        with pytest.raises(ValueError):
            ie.Pmf([1.2, -0.2])
        with pytest.raises(ValueError, match=r"sum to 0\.5, not 1"):
            ie.Pmf(np.array([0.5, 0.0]))

    def test_channel_flushes_subnormal_entries(self):
        W = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0, 2.0]),
            [[0.0, 0.0, 1.0], [1.0, 5e-324, 0.0]]).transition
        np.testing.assert_array_equal(W, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        tiny = np.finfo(float).tiny
        row = ie.DmChannel.point_to_point(
            ie.Alphabet([0.0]), ie.Alphabet([0.0, 1.0]), [[1.0 - tiny, tiny]]).transition[0]
        assert row[1] == tiny

    def test_channel_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            ie.DmChannel.point_to_point(
                ie.Alphabet([0.0, 1.0]), ie.Alphabet([0.0, 1.0]),
                [[0.7, 0.2], [0.5, 0.5]])

    def test_channel_rejects_non_finite(self):
        # NaN passes both the sign and the row-sum test unless it is checked.
        x = ie.Alphabet([0.0, 1.0])
        for bad in ([[np.nan, 1.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
                    [[1.0, 0.0], [-np.inf, 1.0]]):
            with pytest.raises(ValueError, match="finite"):
                ie.DmChannel.point_to_point(x, x, bad)
        W = np.full((2, 2, 2), 0.5)
        W[1, 0] = [np.nan, 1.0]
        with pytest.raises(ValueError, match="finite"):
            ie.DmChannel.mac(x, x, x, W)

    def test_pmf_rejects_non_finite(self):
        for bad in ([np.nan, 1.0], [np.inf, 0.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="finite"):
                ie.Pmf(bad)

    def test_cost_rejects_non_finite(self):
        for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf]):
            with pytest.raises(ValueError, match="finite"):
                ie.CostFn(bad)

    def test_energy_rejects_non_finite(self):
        for bad in ([np.nan, 0.0], [0.0, np.inf], [-np.inf]):
            with pytest.raises(ValueError, match="finite"):
                ie.EnergyFn(bad)

    def test_cost_energy_reject_negative(self):
        with pytest.raises(ValueError):
            ie.CostFn([1.0, -0.5])
        with pytest.raises(ValueError):
            ie.EnergyFn([-1e-3])

    def test_awgn_spec_positive_noise(self):
        with pytest.raises(ValueError):
            ie.AwgnSpec(0.0)

    def test_immutable_arrays(self):
        p = ie.Pmf.uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestExpectedCost:
    def test_uniform_four_levels(self):
        p = ie.Pmf.uniform(4)
        c = ie.CostFn([4.0, 1.0, 1.0, 4.0])
        assert ie.expected_cost(p, c) == pytest.approx((4 + 1 + 1 + 4) / 4)

    def test_point_mass_at_zero_cost(self):
        p = ie.Pmf.degenerate(2, 0)
        c = ie.CostFn([0.0, 1.0])
        assert ie.expected_cost(p, c) == 0.0

    def test_symmetric_four_level_family(self):
        # E[X^2] = 6p + 1 for the pmf (p, 1/2-p, 1/2-p, p) on {-2,-1,1,2}
        p = 0.25
        pmf = ie.Pmf([p, 0.5 - p, 0.5 - p, p])
        c = ie.CostFn([4.0, 1.0, 1.0, 4.0])
        assert ie.expected_cost(pmf, c) == pytest.approx(6 * p + 1)

    def test_length_mismatch(self):
        with pytest.raises(ie.AlphabetMismatchError):
            ie.expected_cost(ie.Pmf.uniform(3), ie.CostFn([1.0, 2.0]))


class TestMacOutputPmf:
    def test_adder_uniform(self):
        ch = make_binary_adder()
        out = ie.mac_output_pmf(ie.Pmf.uniform(2), ie.Pmf.uniform(2), ch)
        np.testing.assert_allclose(out.probs, [0.25, 0.5, 0.25])

    def test_degenerate_inputs(self):
        ch = make_binary_adder()
        out = ie.mac_output_pmf(ie.Pmf.degenerate(2, 0), ie.Pmf.degenerate(2, 0), ch)
        np.testing.assert_allclose(out.probs, [1.0, 0.0, 0.0])

    def test_uniform_times_degenerate(self):
        ch = make_binary_adder()
        out = ie.mac_output_pmf(ie.Pmf.uniform(2), ie.Pmf.degenerate(2, 1), ch)
        np.testing.assert_allclose(out.probs, [0.0, 0.5, 0.5])

    def test_sums_to_one_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            W = rng.dirichlet(np.ones(4), size=(3, 2))
            ch = ie.DmChannel.mac(ie.Alphabet([0.0, 1.0, 2.0]),
                                  ie.Alphabet([0.0, 1.0]),
                                  ie.Alphabet([0.0, 1.0, 2.0, 3.0]), W)
            p1 = ie.Pmf(rng.dirichlet(np.ones(3)))
            p2 = ie.Pmf(rng.dirichlet(np.ones(2)))
            out = ie.mac_output_pmf(p1, p2, ch)
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert np.all(out.probs >= 0)


class TestExpectedReceivedEnergy:
    def test_adder_uniform(self):
        ch = make_binary_adder()
        b = ie.EnergyFn([0.0, 1.0, 2.0])
        got = ie.expected_received_energy(ie.Pmf.uniform(2), ie.Pmf.uniform(2), ch, b)
        assert got == pytest.approx(0.25 * 0 + 0.5 * 1 + 0.25 * 2)

    def test_degenerate_cases(self):
        ch = make_binary_adder()
        b = ie.EnergyFn([0.0, 1.0, 2.0])
        zero = ie.Pmf.degenerate(2, 0)
        one = ie.Pmf.degenerate(2, 1)
        assert ie.expected_received_energy(zero, zero, ch, b) == pytest.approx(0.0)
        assert ie.expected_received_energy(one, one, ch, b) == pytest.approx(2.0)

    def test_matches_expected_cost_of_output(self):
        rng = np.random.default_rng(11)
        ch = make_binary_adder()
        for _ in range(25):
            p1 = ie.Pmf(rng.dirichlet(np.ones(2)))
            p2 = ie.Pmf(rng.dirichlet(np.ones(2)))
            b = ie.EnergyFn(rng.uniform(0, 3, size=3))
            direct = ie.expected_received_energy(p1, p2, ch, b)
            via_cost = ie.expected_cost(ie.mac_output_pmf(p1, p2, ch), b)
            assert direct == pytest.approx(via_cost)


class TestChannelFile:
    def _doc(self):
        return {
            "input_alphabets": [[0.0, 1.0], [0.0, 1.0]],
            "output_alphabet": [0.0, 1.0, 2.0],
            "transition": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]],
            "cost": [[0.0, 1.0], [0.0, 1.0]],
            "energy": [0.0, 1.0, 2.0],
        }

    def _write(self, tmp_path, doc):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        return path

    def test_roundtrip(self, tmp_path):
        path = self._write(tmp_path, self._doc())
        ch, costs, energy = ie.load_channel_file(path)
        assert ch.is_mac
        np.testing.assert_allclose(ch.transition[1, 0], [0, 1, 0])
        out = tmp_path / "copy.json"
        ie.save_channel_file(out, ch, costs, energy)
        ch2, costs2, energy2 = ie.load_channel_file(out)
        np.testing.assert_allclose(ch2.transition, ch.transition)
        np.testing.assert_allclose(energy2.values, energy.values)

    def test_noiseless_four_level_identity(self, tmp_path):
        doc = {
            "input_alphabets": [[-2.0, -1.0, 1.0, 2.0]],
            "output_alphabet": [-2.0, -1.0, 1.0, 2.0],
            "transition": np.eye(4).tolist(),
            "cost": [4.0, 1.0, 1.0, 4.0],
            "energy": [4.0, 1.0, 1.0, 4.0],
        }
        path = self._write(tmp_path, doc)
        ch, costs, energy = ie.load_channel_file(path)
        assert not ch.is_mac
        np.testing.assert_allclose(ch.transition, np.eye(4))

    def test_rejects_unknown_keys(self, tmp_path):
        doc = self._doc()
        doc["extra"] = 1
        with pytest.raises(ie.ChannelFormatError, match="unknown"):
            ie.load_channel_file(self._write(tmp_path, doc))

    def test_rejects_bad_row_sum(self, tmp_path):
        doc = self._doc()
        doc["transition"][2] = [0.0, 0.9, 0.0]
        with pytest.raises(ie.ChannelFormatError, match="row 2"):
            ie.load_channel_file(self._write(tmp_path, doc))

    @pytest.mark.parametrize("field, where", [
        ("transition", "transition row 2"), ("cost", "cost table 1"), ("energy", "energy")])
    def test_rejects_negative_entry_naming_it(self, tmp_path, field, where):
        doc = negative_entry_doc(self._doc(), field)
        with pytest.raises(ie.ChannelFormatError, match=where):
            ie.load_channel_file(self._write(tmp_path, doc))

    def test_rejects_ragged_matrix(self, tmp_path):
        doc = self._doc()
        doc["transition"][1] = [0.5, 0.5]
        with pytest.raises(ie.ChannelFormatError, match="row 1"):
            ie.load_channel_file(self._write(tmp_path, doc))

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ie.ChannelFormatError, match="empty"):
            ie.load_channel_file(path)

    def test_rejects_missing_key(self, tmp_path):
        doc = self._doc()
        del doc["energy"]
        with pytest.raises(ie.ChannelFormatError, match="missing"):
            ie.load_channel_file(self._write(tmp_path, doc))

    @pytest.mark.parametrize("case", MALFORMED_CHANNEL_FILES)
    def test_malformed_file_raises_a_format_error_naming_it(self, tmp_path, case):
        data, fragment = MALFORMED_CHANNEL_FILES[case]
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ie.ChannelFormatError) as info:
            ie.load_channel_file(path)
        assert str(info.value).startswith(f"{path}: ")
        assert fragment in str(info.value)

    def test_integer_literals_read_as_floats(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"input_alphabets": [[0, 1]], "output_alphabet": [0, 1], '
                        '"transition": [[1, 0], [0, 1]], "cost": [0, 2], "energy": [-0, 1]}')
        ch, (cost,), energy = ie.load_channel_file(path)
        np.testing.assert_array_equal(ch.transition, np.eye(2))
        assert cost.values.tolist() == [0.0, 2.0]
        assert np.signbit(energy.values[0])  # the literal -0 reads as -0.0

    def test_mutated_documents_raise_only_format_errors(self, tmp_path):
        """300 seeded documents, each with 1-3 values (whole lists too)
        replaced; loading one may succeed or raise ChannelFormatError only."""
        pool = [0, -1, 2.5, 1e308, True, False, None, "x", [], [[]], [0.5, [0.5]], 10**399]
        rng = np.random.default_rng(3200)
        path, escaped = tmp_path / "mutant.json", []
        for k in range(300):
            doc = copy.deepcopy([self._doc(), BSC_DOC][k % 2])
            for _ in range(rng.integers(1, 4)):
                paths = _paths(doc)
                *parents, key = paths[rng.integers(1, len(paths))]
                node = doc
                for p in parents:
                    node = node[p]
                node[key] = copy.deepcopy(pool[rng.integers(len(pool))])
            path.write_text(json.dumps(doc))
            try:
                ie.load_channel_file(path)
            except ie.ChannelFormatError:
                pass
            except Exception as exc:  # the sweep lists every escape, then fails
                escaped.append((k, type(exc).__name__, json.dumps(doc)[:200]))
        assert escaped == []


def _paths(node, path=()):
    """The path of every value in a JSON document, the root's () first."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    return [path] + [p for key, child in children for p in _paths(child, path + (key,))]
