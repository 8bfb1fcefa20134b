"""Table-I configuration and scheme preset tests."""

import dataclasses

import pytest

from repro.config import (
    CACHE_LINE_BYTES,
    CircuitConfig,
    NetworkConfig,
    RouterConfig,
    SCHEMES,
    SDMConfig,
    SlotTableConfig,
    SupervisorConfig,
    VCGatingConfig,
    config_as_dict,
    scheme_config,
    table_i_summary,
)


class TestTableIDefaults:
    """The defaults must match Table I of the paper."""

    def test_topology_36_node_mesh(self):
        cfg = NetworkConfig()
        assert (cfg.width, cfg.height, cfg.num_nodes) == (6, 6, 36)

    def test_channel_width_16_bytes(self):
        assert RouterConfig().channel_width_bytes == 16

    def test_packet_sizes(self):
        cfg = NetworkConfig()
        assert cfg.packet_size("config") == 1
        assert cfg.packet_size("cs_data") == 4
        assert cfg.packet_size("ps_data") == 5
        assert cfg.packet_size("cs_vicinity") == 5
        assert cfg.packet_size("ctrl") == 1

    def test_slot_table_128_entries(self):
        assert SlotTableConfig().size == 128

    def test_vcs_and_depth(self):
        r = RouterConfig()
        assert r.num_vcs == 4
        assert r.vc_depth == 5

    def test_cache_line(self):
        assert CACHE_LINE_BYTES == 64
        assert NetworkConfig().data_flits_per_line == 4

    def test_table_i_summary_mentions_key_parameters(self):
        text = dict(table_i_summary(NetworkConfig()))
        assert "36-node" in text["Topology"]
        assert "16 Bytes" in text["Channel Width"]
        assert "128 entries" in text["Slot Tables"]
        assert "4/port" in text["Virtual Channels"]


class TestSchemePresets:
    def test_all_schemes_buildable(self):
        for scheme in SCHEMES:
            cfg = scheme_config(scheme)
            assert cfg.num_nodes == 36

    def test_packet_preset(self):
        cfg = scheme_config("packet_vc4")
        assert cfg.switching == "packet"
        assert not cfg.circuit.enabled

    def test_sdm_preset(self):
        cfg = scheme_config("hybrid_sdm_vc4")
        assert cfg.switching == "sdm"
        assert cfg.sdm.planes == 4

    def test_tdm_presets(self):
        vc4 = scheme_config("hybrid_tdm_vc4")
        assert vc4.switching == "tdm"
        assert not vc4.vc_gating.enabled
        assert not vc4.circuit.hitchhiker

        vct = scheme_config("hybrid_tdm_vct")
        assert vct.vc_gating.enabled

        hop = scheme_config("hybrid_tdm_hop_vc4")
        assert hop.circuit.hitchhiker and hop.circuit.vicinity

        hop_t = scheme_config("hybrid_tdm_hop_vct")
        assert hop_t.vc_gating.enabled and hop_t.circuit.hitchhiker

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            scheme_config("not_a_scheme")

    def test_overrides_applied(self):
        cfg = scheme_config("hybrid_tdm_vc4", width=8, height=8,
                            slot_table_size=256)
        assert cfg.num_nodes == 64
        assert cfg.slot_table.size == 256

    def test_config_as_dict_roundtrippable(self):
        d = config_as_dict(scheme_config("hybrid_tdm_vc4"))
        assert d["router"]["num_vcs"] == 4
        assert d["slot_table"]["size"] == 128


class TestValidation:
    def test_bad_mesh(self):
        with pytest.raises(ValueError):
            NetworkConfig(width=1)

    def test_bad_switching(self):
        with pytest.raises(ValueError):
            NetworkConfig(switching="quantum")

    def test_bad_router(self):
        with pytest.raises(ValueError):
            RouterConfig(num_vcs=0)
        with pytest.raises(ValueError):
            RouterConfig(vc_depth=0)

    def test_bad_slot_table(self):
        with pytest.raises(ValueError):
            SlotTableConfig(size=1)
        with pytest.raises(ValueError):
            SlotTableConfig(reserve_cap=0.0)
        with pytest.raises(ValueError):
            SlotTableConfig(initial_active=1)

    def test_slot_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            SlotTableConfig(size=96)

    def test_initial_active_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            SlotTableConfig(size=128, initial_active=24)

    def test_dynamic_wheel_shorter_than_reservation_rejected(self):
        # with dynamic sizing the wheel starts at initial_active
        with pytest.raises(ValueError, match="slot wheel"):
            NetworkConfig(slot_table=SlotTableConfig(size=128,
                                                     initial_active=2))

    def test_static_wheel_shorter_than_reservation_rejected(self):
        # without dynamic sizing the whole table is the wheel
        with pytest.raises(ValueError, match="slot wheel"):
            NetworkConfig(slot_table=SlotTableConfig(
                size=2, initial_active=2, dynamic_sizing=False))

    def test_vicinity_reservation_needs_a_header_slot(self):
        small = SlotTableConfig(size=128, initial_active=4)
        NetworkConfig(slot_table=small)          # 4 slots fit exactly
        with pytest.raises(ValueError, match="slot wheel"):
            NetworkConfig(slot_table=small,
                          circuit=CircuitConfig(vicinity=True))

    def test_bad_gating_thresholds(self):
        with pytest.raises(ValueError):
            VCGatingConfig(threshold_low=0.8, threshold_high=0.5)

    def test_gating_epoch_must_be_positive(self):
        with pytest.raises(ValueError, match="epoch"):
            VCGatingConfig(epoch=0)

    def test_gating_floor_above_router_vcs_rejected(self):
        router = RouterConfig(num_vcs=2)
        gating = VCGatingConfig(enabled=True, min_vcs=3)
        with pytest.raises(ValueError, match="min_vcs"):
            NetworkConfig(router=router, vc_gating=gating)
        # a disabled controller never gates, so its floor is not checked
        NetworkConfig(router=router,
                      vc_gating=dataclasses.replace(gating, enabled=False))
        NetworkConfig(router=router,
                      vc_gating=dataclasses.replace(gating, min_vcs=2))

    @pytest.mark.parametrize("name", ["freq_window", "setup_msg_threshold",
                                      "idle_evict_cycles"])
    def test_circuit_windows_must_be_positive(self, name):
        with pytest.raises(ValueError, match=name):
            CircuitConfig(**{name: 0})
        CircuitConfig(**{name: 1})

    @pytest.mark.parametrize("name", ["stall_threshold",
                                      "max_setup_retries"])
    def test_circuit_limits_must_be_nonnegative(self, name):
        with pytest.raises(ValueError, match=name):
            CircuitConfig(**{name: -1})
        CircuitConfig(**{name: 0})

    def test_bad_sdm(self):
        with pytest.raises(ValueError):
            SDMConfig(planes=1)

    def test_sdm_planes_wider_than_the_channel_rejected(self):
        narrow = RouterConfig(channel_width_bytes=2)
        planes = SDMConfig(planes=4)
        with pytest.raises(ValueError, match="planes"):
            NetworkConfig(switching="sdm", router=narrow, sdm=planes)
        # the SDM section is unread by the other datapaths
        NetworkConfig(switching="tdm", router=narrow, sdm=planes)
        NetworkConfig(switching="sdm", router=narrow, sdm=SDMConfig(planes=2))

    def test_config_vc_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="config_vc_depth"):
            RouterConfig(config_vc_depth=0)
        RouterConfig(config_vc_depth=1)

    def test_resize_fail_threshold_must_be_positive(self):
        with pytest.raises(ValueError, match="resize_fail_threshold"):
            SlotTableConfig(resize_fail_threshold=0)
        SlotTableConfig(resize_fail_threshold=1)

    @pytest.mark.parametrize("threshold", [0, 4])
    def test_sharing_fail_threshold_within_the_2bit_counter(self, threshold):
        with pytest.raises(ValueError, match="sharing_fail_threshold"):
            CircuitConfig(sharing_fail_threshold=threshold)
        CircuitConfig(sharing_fail_threshold=1)
        CircuitConfig(sharing_fail_threshold=3)

    def test_bad_circuit(self):
        with pytest.raises(ValueError):
            CircuitConfig(duration=0)

    def test_unknown_packet_kind(self):
        with pytest.raises(ValueError):
            NetworkConfig().packet_size("mystery")

    def test_configs_are_replaceable(self):
        cfg = NetworkConfig()
        cfg2 = dataclasses.replace(cfg, width=8)
        assert cfg2.width == 8 and cfg.width == 6


class TestSupervisorConfigValidation:
    def test_heartbeat_slower_than_lease_rejected(self):
        """A worker heartbeating slower than its lease TTL would be
        reclaimed as dead while healthy — refuse at construction, not
        mid-sweep."""
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            SupervisorConfig(lease_ttl_s=1.0, heartbeat_interval_s=1.0)
        with pytest.raises(ValueError, match="heartbeat_interval_s"):
            SupervisorConfig(lease_ttl_s=1.0, heartbeat_interval_s=5.0)

    def test_lease_needs_two_heartbeats_of_slack(self):
        with pytest.raises(ValueError, match="at least 2x"):
            SupervisorConfig(lease_ttl_s=1.5, heartbeat_interval_s=1.0)
        SupervisorConfig(lease_ttl_s=2.0, heartbeat_interval_s=1.0)

    def test_lease_zero_disables_the_coupling(self):
        SupervisorConfig(lease_ttl_s=0.0, heartbeat_interval_s=60.0)

    def test_nonpositive_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(lease_ttl_s=-1.0)
