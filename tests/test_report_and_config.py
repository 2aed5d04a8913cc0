"""Report rendering and gpgpusim.config-style option files."""

import pytest

from repro.analysis.report import (TABLE3_ROWS, bar_chart, format_kb,
                                   pie_text, render_table, stacked_chart)
from repro.faults.campaign import CampaignConfig
from repro.faults.config_file import (dump_config, load_config,
                                      parse_config_text)
from repro.faults.mask import MultiBitMode
from repro.faults.targets import Structure


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(("a", "bbbb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_table3_mentions_this_work(self):
        assert TABLE3_ROWS[-1][0] == "This Work"
        assert TABLE3_ROWS[-1][2] == "4.0"

    def test_bar_chart(self):
        text = bar_chart({"VA": 0.5, "KM": 1.0})
        assert "KM" in text and "#" in text

    def test_bar_chart_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_stacked_chart_legend(self):
        text = stacked_chart({"VA": {"SDC": 0.3, "Crash": 0.1}},
                             ["SDC", "Crash"])
        assert "legend:" in text and "0.4" in text

    def test_pie_text_sorted(self):
        text = pie_text({"rf": 0.7, "l2": 0.3})
        assert text.index("rf") < text.index("l2")

    def test_pie_text_empty(self):
        assert "masked" in pie_text({})

    def test_format_kb(self):
        assert format_kb(512.0) == "512.00 KB"
        assert format_kb(2048.0) == "2.00 MB"


class TestConfigFile:
    MINIMAL = "-gpufi_benchmark vectoradd\n-gpufi_card RTX2060\n"

    def test_minimal(self):
        config = parse_config_text(self.MINIMAL)
        assert config.benchmark == "vectoradd"
        assert config.card == "RTX2060"
        assert config.structures is None

    def test_full_options(self):
        text = self.MINIMAL + """
            -gpufi_components register_file,l2_cache
            -gpufi_runs 250
            -gpufi_bits_per_fault 3
            -gpufi_multibit_mode adjacent
            -gpufi_warp_level 1
            -gpufi_blocks 2
            -gpufi_cores 2
            -gpufi_kernels Fan1,Fan2
            -gpufi_seed 99
            -gpufi_scheduler lrr
            -gpufi_fault_model cache_hook
            -gpufi_log /tmp/x.jsonl
        """
        config = parse_config_text(text)
        assert config.structures == (Structure.REGISTER_FILE,
                                     Structure.L2_CACHE)
        assert config.runs_per_structure == 250
        assert config.bits_per_fault == 3
        assert config.multibit_mode is MultiBitMode.ADJACENT
        assert config.warp_level and config.fault_model == "cache_hook"
        assert config.kernels == ("Fan1", "Fan2")
        assert config.scheduler_policy == "lrr"

    def test_comments_and_foreign_options_ignored(self):
        text = ("# gpgpusim options\n"
                "-gpgpu_n_clusters 30\n" + self.MINIMAL)
        config = parse_config_text(text)
        assert config.benchmark == "vectoradd"

    def test_missing_required(self):
        with pytest.raises(ValueError, match="required"):
            parse_config_text("-gpufi_card RTX2060\n")

    def test_unknown_option(self):
        with pytest.raises(ValueError, match="unknown gpufi"):
            parse_config_text(self.MINIMAL + "-gpufi_bogus 1\n")

    def test_roundtrip(self, tmp_path):
        config = CampaignConfig(
            benchmark="hotspot", card="GTXTitan",
            structures=(Structure.SHARED_MEM,), runs_per_structure=5,
            bits_per_fault=2, warp_level=True, seed=3)
        path = tmp_path / "gpufi.config"
        path.write_text(dump_config(config))
        loaded = load_config(path)
        assert loaded.benchmark == config.benchmark
        assert loaded.structures == config.structures
        assert loaded.bits_per_fault == 2
        assert loaded.warp_level


class TestMarkdownReport:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.faults.campaign import Campaign, CampaignConfig

        return Campaign(CampaignConfig(
            benchmark="vectoradd", card="RTX2060",
            structures=(Structure.REGISTER_FILE, Structure.L2_CACHE),
            runs_per_structure=5, seed=21)).run()

    def test_contains_sections(self, result):
        from repro.analysis.markdown import render_markdown

        text = render_markdown(result)
        assert "# gpuFI-4 campaign: vectoradd on RTX2060" in text
        assert "## Kernel profile" in text
        assert "## Fault effects" in text
        assert "wAVF (eq. 3)" in text
        assert "register_file" in text

    def test_custom_title(self, result):
        from repro.analysis.markdown import render_markdown

        assert render_markdown(result,
                               title="My Report").startswith("# My Report")

    def test_tables_are_well_formed(self, result):
        from repro.analysis.markdown import render_markdown

        for line in render_markdown(result).splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
