import math

import numpy as np
import pytest

from conetomo.geometry import (
    ConeSinogram,
    ImageGrid,
    RadonSinogram,
    axis_angles,
    direction_vector,
    opening_midpoints,
    pixel_centers,
    sphere_area,
)


def test_direction_convention():
    # angle a maps to (sin a, cos a): 0 -> +y, pi/2 -> +x
    assert np.allclose(direction_vector(0.0), [0.0, 1.0])
    assert np.allclose(direction_vector(math.pi / 2), [1.0, 0.0])
    assert np.allclose(direction_vector(math.pi), [0.0, -1.0])
    a = np.linspace(0, 2 * math.pi, 17)
    v = direction_vector(a)
    assert v.shape == (17, 2)
    assert np.allclose(np.hypot(v[:, 0], v[:, 1]), 1.0)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)


def test_pixel_centers():
    c = pixel_centers(4, 1.0)
    assert np.allclose(c, [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(c, -c[::-1])  # symmetric about 0


def test_lattices():
    b = axis_angles(8)
    assert b[0] == 0.0 and len(b) == 8
    assert np.allclose(np.diff(b), math.pi / 4)
    p = opening_midpoints(4)
    assert np.allclose(p, [math.pi / 8, 3 * math.pi / 8, 5 * math.pi / 8, 7 * math.pi / 8])
    assert 0.0 < p[0] and p[-1] < math.pi


def test_image_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid(2, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ImageGrid(2, -1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ImageGrid(2, 1.0, np.full((2, 2), np.nan))
    g = ImageGrid(4, 2.0, np.zeros((4, 4)))
    assert g.pixel_size == pytest.approx(1.0)
    assert np.allclose(g.coords, pixel_centers(4, 2.0))


def test_sinogram_containers():
    r = RadonSinogram(3, 5, 1.0, np.zeros((3, 5)))
    assert np.allclose(r.thetas, [0, math.pi / 3, 2 * math.pi / 3])
    assert np.allclose(r.offsets, np.linspace(-1, 1, 5))
    with pytest.raises(ValueError):
        RadonSinogram(3, 5, 1.0, np.zeros((5, 3)))
    c = ConeSinogram(np.zeros((2, 2)), 4, 3, np.zeros((2, 4, 3)))
    assert np.allclose(c.betas, axis_angles(4))
    assert np.allclose(c.openings, opening_midpoints(3))
    with pytest.raises(ValueError):
        ConeSinogram(np.zeros((2, 3)), 4, 3, np.zeros((2, 4, 3)))
    with pytest.raises(ValueError):
        ConeSinogram(np.zeros((2, 2)), 4, 3, np.zeros((1, 4, 3)))


def test_containers_copy_input():
    vals = np.zeros((2, 2))
    g = ImageGrid(2, 1.0, vals)
    vals[0, 0] = 5.0
    assert g.values[0, 0] == 0.0
