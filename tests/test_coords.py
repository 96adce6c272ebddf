import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from probcell import CoordSet, load_coords, save_coords
from probcell.errors import NonFiniteInput, ProbabilityOutOfRange


class TestCoordSetValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            CoordSet(np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]]))

    @pytest.mark.parametrize("bad", [1.7, -0.1, np.nan, np.inf])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ProbabilityOutOfRange):
            CoordSet(np.zeros((2, 3)), p=np.array([0.5, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_dm_value_rejected(self, bad):
        # a NaN peak value used to pass into classify's output unchanged and
        # drop silently out of every threshold filter
        with pytest.raises(NonFiniteInput, match="dm_value"):
            CoordSet(np.zeros((2, 3)), dm_value=np.array([0.5, bad]))

    def test_unit_interval_endpoints_accepted(self):
        cs = CoordSet(np.zeros((2, 3)), p=np.array([0.0, 1.0]))
        assert np.array_equal(cs.p, [0.0, 1.0])


class TestLoadCoordsValidation:
    def test_nan_coordinate_rejected(self, tmp_path):
        (tmp_path / "c.csv").write_text("z_um,y_um,x_um\n1.0,2.0,3.0\nnan,2.0,3.0\n")
        with pytest.raises(NonFiniteInput):
            load_coords(tmp_path / "c.csv")

    def test_probability_above_one_rejected(self, tmp_path):
        (tmp_path / "c.csv").write_text("z_um,y_um,x_um,p\n1.0,2.0,3.0,1.7\n")
        with pytest.raises(ProbabilityOutOfRange):
            load_coords(tmp_path / "c.csv")

    def test_empty_file_names_the_file(self, tmp_path):
        # raised a bare StopIteration, reading a header that is not there
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            load_coords(tmp_path / "empty.csv")

    @pytest.mark.parametrize("row", ["1.0,2.0,3.0,4.0", "1.0,2.0"])
    def test_row_width_must_match_header(self, row, tmp_path):
        # a wider row used to load with its extra value dropped
        (tmp_path / "c.csv").write_text(f"z_um,y_um,x_um\n{row}\n")
        with pytest.raises(ValueError):
            load_coords(tmp_path / "c.csv")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _coord_sets(draw):
    n = draw(st.integers(0, 6))
    coords = draw(arrays(np.float64, (n, 3), elements=_FINITE))
    p = draw(st.none() | arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    dm = draw(st.none() | arrays(np.float64, n, elements=st.floats(allow_nan=False)))
    return CoordSet(coords, p=p, dm_value=dm)


class TestCsvRoundTrip:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(cs=_coord_sets())
    def test_save_load_bit_exact(self, cs):
        with tempfile.TemporaryDirectory() as d:
            save_coords(cs, Path(d) / "c.csv")
            back = load_coords(Path(d) / "c.csv")
        assert back.coords.tobytes() == cs.coords.tobytes()
        for got, want in ((back.p, cs.p), (back.dm_value, cs.dm_value)):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()
