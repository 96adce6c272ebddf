import numpy as np
import pytest

from probcell import CoordSet, load_coords
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
