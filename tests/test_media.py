"""Manifest parsing, presets, QoE parameters, and the CBR/VBR size rules."""

import json
import math

import pytest

from abrbench import (
    DomainError,
    ParseError,
    QoEParams,
    VideoManifest,
    cbr_manifest,
    dump_manifest,
    load_manifest,
    preset,
    with_vbr_sizes,
)
from abrbench.media import MAX_CHUNKS, MAX_LEVELS

PENSIEVE_LADDER = (4.3, 2.85, 1.85, 1.2, 0.75, 0.3)
FIVEG_LADDER = (160.0, 110.0, 80.0, 60.0, 40.0, 20.0)


class TestPresets:
    def test_pensieve_matches_published_setup(self):
        manifest, params = preset("pensieve")
        assert manifest.bitrates_mbps == PENSIEVE_LADDER
        assert manifest.chunk_duration_s == 4.0
        assert manifest.chunk_count == 48
        assert params.alpha1 == 4.3
        assert params.alpha2 == 1.0
        assert params.rtt_s == 0.08
        assert params.buffer_cap_s == 60.0

    def test_5g_matches_published_setup(self):
        manifest, params = preset("a2br-5g")
        assert manifest.bitrates_mbps == FIVEG_LADDER
        assert manifest.chunk_duration_s == 4.0
        assert manifest.chunk_count == 39
        assert params.alpha1 == 160.0
        assert params.alpha2 == 1.0
        assert params.rtt_s == 0.104

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset("nosuch")

    def test_chunk_count_override(self):
        manifest, _ = preset("pensieve", chunk_count=16)
        assert manifest.chunk_count == 16


class TestChunkSize:
    def test_cbr_rule(self):
        manifest = cbr_manifest((1.2, 0.6), 4.0, 3)
        assert manifest.size_mb(1, 1) == pytest.approx(4.8)
        assert manifest.size_mb(3, 0) == pytest.approx(2.4)

    def test_out_of_range_chunk(self):
        manifest = cbr_manifest((1.2, 0.6), 4.0, 3)
        with pytest.raises(DomainError):
            manifest.size_mb(4, 1)
        with pytest.raises(DomainError):
            manifest.size_mb(0, 1)

    def test_vbr_value_equals_file_entry(self):
        manifest = with_vbr_sizes(cbr_manifest(PENSIEVE_LADDER, 4.0, 5), seed=3)
        text = dump_manifest(manifest, QoEParams(alpha1=4.3, alpha2=1.0))
        loaded, _ = load_manifest(text)
        doc = json.loads(text)
        # wire format columns follow the descending ladder
        assert loaded.size_mb(2, 5) == doc["chunk_sizes_mb"][1][0]

    def test_level_index_views(self):
        manifest = cbr_manifest(PENSIEVE_LADDER, 4.0, 2)
        assert manifest.levels == tuple(sorted(PENSIEVE_LADDER))
        assert manifest.rate_of(0) == 0.3
        assert manifest.rate_of(5) == 4.3
        assert manifest.size_mb(1, 5) == pytest.approx(17.2)


class TestInvariants:
    def test_bitrates_strictly_decreasing(self):
        with pytest.raises(DomainError):
            VideoManifest(
                bitrates_mbps=(1.0, 1.0),
                chunk_duration_s=4.0,
                chunk_sizes_mb=((4.0, 4.0),),
            )

    def test_sizes_increase_with_bitrate(self):
        with pytest.raises(DomainError):
            VideoManifest(
                bitrates_mbps=(2.0, 1.0),
                chunk_duration_s=4.0,
                chunk_sizes_mb=((4.0, 5.0),),
            )

    def test_positive_sizes(self):
        with pytest.raises(DomainError):
            VideoManifest(
                bitrates_mbps=(2.0, 1.0),
                chunk_duration_s=4.0,
                chunk_sizes_mb=((4.0, 0.0),),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["bitrate", "chunk_duration_s", "chunk_size"])
    def test_manifest_must_be_finite(self, field, bad):
        kwargs = {
            "bitrates_mbps": (bad, 1.0) if field == "bitrate" else (2.0, 1.0),
            "chunk_duration_s": bad if field == "chunk_duration_s" else 4.0,
            "chunk_sizes_mb": ((bad, 4.0),) if field == "chunk_size" else ((8.0, 4.0),),
        }
        with pytest.raises(DomainError, match="finite"):
            VideoManifest(**kwargs)

    def test_qoe_params_invariants(self):
        with pytest.raises(DomainError):
            QoEParams(alpha1=-1.0, alpha2=0.0)
        with pytest.raises(DomainError):
            QoEParams(alpha1=0.0, alpha2=0.0, buffer_cap_s=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "buffer_cap_s", "rtt_s"])
    def test_qoe_params_must_be_finite(self, field, bad):
        kwargs = {"alpha1": 1.0, "alpha2": 1.0, field: bad}
        with pytest.raises(DomainError):
            QoEParams(**kwargs)

    def test_vbr_respects_invariants(self):
        manifest = with_vbr_sizes(cbr_manifest(PENSIEVE_LADDER, 4.0, 30), seed=11)
        # constructor re-validates; also spot-check spread stays within 20%
        base = cbr_manifest(PENSIEVE_LADDER, 4.0, 30)
        for i in range(1, 31):
            ratio = manifest.size_mb(i, 0) / base.size_mb(i, 0)
            assert 0.8 <= ratio <= 1.2


class TestWireFormat:
    def test_load_basic(self):
        text = json.dumps(
            {
                "bitrates_mbps": [2.0, 1.0],
                "chunk_duration_s": 4.0,
                "chunk_count": 2,
                "chunk_sizes_mb": None,
                "alpha1": 2.0,
                "alpha2": 1.0,
                "buffer_cap_s": 30.0,
                "rtt_s": 0.05,
            }
        )
        manifest, params = load_manifest(text)
        assert manifest.bitrates_mbps == (2.0, 1.0)
        assert manifest.size_mb(1, 1) == 8.0  # CBR rule
        assert params.buffer_cap_s == 30.0

    def test_ascending_input_normalized(self):
        text = json.dumps(
            {
                "bitrates_mbps": [1.0, 2.0],
                "chunk_duration_s": 4.0,
                "chunk_count": 1,
                "chunk_sizes_mb": [[4.0, 8.0]],
                "alpha1": 2.0,
                "alpha2": 1.0,
                "buffer_cap_s": 30.0,
                "rtt_s": 0.0,
            }
        )
        manifest, _ = load_manifest(text)
        assert manifest.bitrates_mbps == (2.0, 1.0)
        assert manifest.chunk_sizes_mb == ((8.0, 4.0),)

    def test_round_trip_idempotent(self):
        manifest, params = preset("a2br-5g")
        text = dump_manifest(manifest, params)
        again_manifest, again_params = load_manifest(text)
        assert again_manifest.bitrates_mbps == manifest.bitrates_mbps
        assert again_manifest.chunk_sizes_mb == manifest.chunk_sizes_mb
        assert again_params == params
        assert dump_manifest(again_manifest, again_params) == text

    def test_missing_key(self):
        with pytest.raises(ParseError, match="alpha1"):
            load_manifest('{"bitrates_mbps": [1.0]}')

    def test_chunk_count_bounded(self):
        doc = json.loads(dump_manifest(*preset("pensieve", chunk_count=1)))
        doc["chunk_sizes_mb"] = None
        doc["chunk_count"] = MAX_CHUNKS
        assert load_manifest(json.dumps(doc))[0].chunk_count == MAX_CHUNKS
        for count in (MAX_CHUNKS + 1, 1e14):
            doc["chunk_count"] = count
            with pytest.raises(ParseError, match="chunk_count"):
                load_manifest(json.dumps(doc))

    def test_levels_bounded(self):
        doc = json.loads(dump_manifest(*preset("pensieve", chunk_count=1)))
        doc["chunk_sizes_mb"] = None
        doc["bitrates_mbps"] = [0.1 * (k + 1) for k in range(MAX_LEVELS)]
        assert load_manifest(json.dumps(doc))[0].n_levels == MAX_LEVELS
        doc["bitrates_mbps"].append(0.1 * (MAX_LEVELS + 1))
        with pytest.raises(ParseError, match="bitrates_mbps"):
            load_manifest(json.dumps(doc))
        with pytest.raises(DomainError, match="bitrate levels"):
            cbr_manifest(doc["bitrates_mbps"], 4.0, 1)

    @pytest.mark.parametrize("rates", [[3.0, 2.0, 2.0], [1.0, 1.0, 2.0], [1.0, 3.0, 2.0],
                                       [2.0, 2.0], []])
    @pytest.mark.parametrize("sizes", ["null", "rows"])
    def test_a_repeated_or_out_of_order_rate_is_refused(self, rates, sizes):
        doc = json.loads(dump_manifest(*preset("pensieve", chunk_count=2)))
        doc["bitrates_mbps"] = rates
        doc["chunk_sizes_mb"] = None if sizes == "null" else [[4.0 * r for r in rates]] * 2
        with pytest.raises(ParseError, match="bitrate"):
            load_manifest(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            load_manifest("{not json")

    def test_invariant_violation_is_parse_error(self):
        text = json.dumps(
            {
                "bitrates_mbps": [2.0, 1.0],
                "chunk_duration_s": 4.0,
                "chunk_count": 1,
                "chunk_sizes_mb": [[1.0, 4.0]],
                "alpha1": 1.0,
                "alpha2": 1.0,
                "buffer_cap_s": 30.0,
                "rtt_s": 0.0,
            }
        )
        with pytest.raises(ParseError):
            load_manifest(text)
