import random
import xml.etree.ElementTree as ET

import pytest

from placetime.errors import ContractError, LoadError
from placetime.geotag import CountryTally
from placetime.mapviz import (MapStyle, PlaceDot, bucket_frequencies,
                              load_outline, project, render_svg)

SVG_NS = "{http://www.w3.org/2000/svg}"


def tally(country, hits, pct):
    return CountryTally(country=country, hits=hits, percentage=pct)


class TestProject:
    def test_center(self):
        assert project(0, 0, MapStyle()) == (500.0, 250.0)

    def test_corners(self):
        assert project(90, -180, MapStyle()) == (0.0, 0.0)
        assert project(-90, 180, MapStyle()) == (1000.0, 500.0)

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            project(91, 0, MapStyle())
        with pytest.raises(ContractError):
            project(0, -181, MapStyle())


class TestBuckets:
    def test_single_country_top_bucket(self):
        assert bucket_frequencies([tally("FR", 5, 100.0)], 4) == {"FR": 3}

    def test_boundary_convention(self):
        # lower-open, upper-closed over [0, 100]
        out = bucket_frequencies([tally("A", 1, 25.0), tally("B", 3, 75.0)], 4)
        assert out == {"A": 0, "B": 2}

    def test_equal_tallies_equal_indices(self):
        out = bucket_frequencies([tally("A", 1, 50.0), tally("B", 1, 50.0)], 4)
        assert out["A"] == out["B"]

    def test_zero_hits_dropped(self):
        assert bucket_frequencies([tally("A", 0, 0.0)], 4) == {}

    def test_monotone_in_percentage(self):
        rng = random.Random(21)
        for _ in range(200):
            pcts = sorted(rng.uniform(0.01, 100.0) for _ in range(5))
            tallies = [tally("C%d" % i, 1, p) for i, p in enumerate(pcts)]
            out = bucket_frequencies(tallies, rng.randrange(2, 9))
            indices = [out["C%d" % i] for i in range(5)]
            assert indices == sorted(indices)

    def test_small_ramp_rejected(self):
        with pytest.raises(ValueError):
            bucket_frequencies([tally("FR", 1, 100.0)], 1)


class TestOutline:
    def test_shipped_outline_loads(self, data_dir):
        outline = load_outline(data_dir / "outline" / "world_outline.tsv")
        assert "FR" in outline and "RO" in outline
        for polys in outline.values():
            for poly in polys:
                assert len(poly) >= 3

    def test_bad_country_code(self, tmp_path):
        path = tmp_path / "o.tsv"
        path.write_text("fra\t0\t0,0 1,0 1,1\n")
        with pytest.raises(LoadError):
            load_outline(path)

    @pytest.mark.parametrize("country", ["fr", "A1", "F", "F.", ""])
    def test_country_code_is_two_upper_case_letters(self, tmp_path, country):
        path = tmp_path / "o.tsv"
        path.write_text("# outline\n%s\t0\t0,0 1,0 1,1\n" % country)
        with pytest.raises(LoadError, match=r"o\.tsv:2: bad country code %r$" % country):
            load_outline(path)

    def test_vertex_out_of_range(self, tmp_path):
        path = tmp_path / "o.tsv"
        path.write_text("FR\t0\t0,0 1,0 200,1\n")
        with pytest.raises(LoadError):
            load_outline(path)

    def test_degenerate_polygon(self, tmp_path):
        path = tmp_path / "o.tsv"
        path.write_text("FR\t0\t0,0 1,0\n")
        with pytest.raises(LoadError):
            load_outline(path)


@pytest.fixture(scope="module")
def outline(data_dir):
    return load_outline(data_dir / "outline" / "world_outline.tsv")


class TestRender:
    def test_parseable_svg(self, outline):
        svg = render_svg([tally("FR", 3, 75.0), tally("DE", 1, 25.0)],
                         [PlaceDot(9, 48.86, 2.35, "FR", 3)], outline)
        root = ET.fromstring(svg)
        assert root.tag == SVG_NS + "svg"

    def test_empty_inputs_neutral_map(self, outline):
        svg = render_svg([], [], outline)
        root = ET.fromstring(svg)
        polygons = root.findall(".//%spolygon" % SVG_NS)
        assert len(polygons) == sum(len(p) for p in outline.values())
        assert {p.get("fill") for p in polygons} == {"#e8e8e8"}
        assert root.findall(".//%scircle" % SVG_NS) == []

    def test_single_place_gets_r_max(self, outline):
        style = MapStyle()
        svg = render_svg([], [PlaceDot(9, 48.86, 2.35, "FR", 1)], outline, style)
        (circle,) = ET.fromstring(svg).findall(".//%scircle" % SVG_NS)
        assert float(circle.get("r")) == pytest.approx(style.r_max)

    def test_fill_ordering_follows_hits(self, outline):
        style = MapStyle()
        svg = render_svg([tally("FR", 3, 75.0), tally("DE", 1, 25.0)], [], outline, style)
        root = ET.fromstring(svg)
        fills = {p.get("id").split("-")[0]: p.get("fill")
                 for p in root.findall(".//%spolygon" % SVG_NS)}
        assert style.ramp.index(fills["FR"]) > style.ramp.index(fills["DE"])

    def test_circle_count_is_distinct_places(self, outline):
        places = [PlaceDot(9, 48.86, 2.35, "FR", 2),
                  PlaceDot(9, 48.86, 2.35, "FR", 1),
                  PlaceDot(30, 51.51, -0.13, "GB", 1)]
        svg = render_svg([], places, outline)
        assert len(ET.fromstring(svg).findall(".//%scircle" % SVG_NS)) == 2

    def test_deterministic(self, outline):
        args = ([tally("FR", 3, 75.0), tally("DE", 1, 25.0)],
                [PlaceDot(9, 48.86, 2.35, "FR", 3), PlaceDot(33, 52.52, 13.41, "DE", 1)],
                outline)
        assert render_svg(*args) == render_svg(*args)

    def test_missing_outline_diagnostic(self, outline):
        diags = []
        svg = render_svg([tally("ZZ", 1, 100.0)],
                         [PlaceDot(99, 10.0, 10.0, "ZZ", 1)], outline,
                         diagnostics=diags)
        assert len(ET.fromstring(svg).findall(".//%scircle" % SVG_NS)) == 1
        assert any("ZZ" in d for d in diags)

    def test_duplicate_dots_merge_and_report_once(self, outline):
        diags = []
        london = PlaceDot(30, 51.51, -0.13, "GB", 1)
        merged = render_svg([], [PlaceDot(99, 10.0, 10.0, "ZZ", 1), PlaceDot(98, 5.0, 5.0, "YY", 1),
                                 PlaceDot(99, 10.0, 10.0, "ZZ", 2), london],
                            outline, diagnostics=diags)
        assert merged == render_svg([], [london, PlaceDot(98, 5.0, 5.0, "YY", 1),
                                         PlaceDot(99, 10.0, 10.0, "ZZ", 3)], outline)
        assert diags == ["no outline for country ZZ (place 99); dot still drawn",
                         "no outline for country YY (place 98); dot still drawn"]
