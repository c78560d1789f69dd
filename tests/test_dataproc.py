"""Profile arrays: coarsening, joint normalization and the profile readers."""

import numpy as np
import pytest

from autoplan.dataproc import (
    GRANULARITY,
    ProfileArrays,
    ProfileError,
    build_environment_arrays,
    coarsen,
    load_profile,
    normalize_joint,
)


def test_coarsen_samples_right_endpoints():
    # 256 points: output point i is source index 2i+1, the right end of its pair
    xs = np.arange(2 * GRANULARITY, dtype=np.float64)
    out = coarsen(xs)
    assert out.shape == (GRANULARITY,)
    np.testing.assert_array_equal(out, xs[1::2])


def test_coarsen_keeps_the_last_value_of_an_uneven_length():
    xs = np.arange(300, dtype=np.float64)
    out = coarsen(xs)
    expected = [(i + 1) * 300 // GRANULARITY - 1 for i in range(GRANULARITY)]
    np.testing.assert_array_equal(out, xs[expected])
    assert out[-1] == xs[-1]


def test_coarsen_pads_a_short_profile_with_its_last_value():
    xs = np.array([1.0, 3.0, 6.0])
    out = coarsen(xs)
    assert out.shape == (GRANULARITY,)
    np.testing.assert_array_equal(out[:3], xs)
    # padding a prefix array with its last value adds no mass
    assert np.all(out[3:] == 6.0)


def test_coarsen_refuses_an_empty_or_2d_array():
    with pytest.raises(ProfileError):
        coarsen(np.array([]))
    with pytest.raises(ProfileError):
        coarsen(np.ones((2, 2)))


def test_normalize_joint_divides_by_one_shared_maximum():
    c, a, w = np.array([1.0, 2.0]), np.array([8.0, 4.0]), np.array([0.0, 2.0])
    nc, na, nw = normalize_joint(c, a, w)
    np.testing.assert_array_equal(nc, [0.125, 0.25])
    np.testing.assert_array_equal(na, [1.0, 0.5])
    np.testing.assert_array_equal(nw, [0.0, 0.25])


def test_normalize_joint_leaves_an_all_zero_profile_as_copies():
    zeros = np.zeros(3)
    out = normalize_joint(zeros, zeros, zeros)
    for arr in out:
        np.testing.assert_array_equal(arr, zeros)
        assert arr is not zeros


def test_all_zero_profile_builds_all_zero_arrays():
    profile = ProfileArrays(c=np.zeros(4), a=np.zeros(4), w=np.zeros(4))
    arrays = build_environment_arrays(profile)
    for arr in (arrays.c, arrays.a, arrays.w):
        assert arr.shape == (GRANULARITY,)
        assert not arr.any()


@pytest.mark.parametrize(
    "header",
    ["name,C,A,W", "name,compute_ms,activation_bytes,param_bytes", " Name , c , a , w "],
)
def test_csv_column_aliases(tmp_path, header):
    path = tmp_path / "profile.csv"
    path.write_text(f"{header}\nx,1,2,3\ny,4,5,6\n")
    profile = load_profile(str(path))
    assert profile.names == ("x", "y")
    np.testing.assert_array_equal(profile.c, [1.0, 4.0])
    np.testing.assert_array_equal(profile.a, [2.0, 5.0])
    np.testing.assert_array_equal(profile.w, [3.0, 6.0])


def test_csv_without_a_name_column_has_no_names(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("param_bytes,compute_ms,activation_bytes\n3,1,2\n")
    profile = load_profile(str(path))
    assert profile.names is None
    assert (profile.c[0], profile.a[0], profile.w[0]) == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("row", ["a,1,2", "a,1,2,3,4"])
def test_csv_row_that_does_not_match_its_header(tmp_path, row):
    path = tmp_path / "profile.csv"
    path.write_text(f"name,C,A,W\nb,1,2,3\n{row}\n")
    with pytest.raises(ProfileError, match="line 3 does not match its header"):
        load_profile(str(path))


@pytest.mark.parametrize(
    "columns, message",
    [
        ('"C": [1, "2"], "A": [1, 1], "W": [1, 1]', "C '2' is not a number"),
        ('"C": [1, 2], "A": [false, 1], "W": [1, 1]', "A False is not a number"),
        ('"C": [1, 2], "A": [1, 1], "W": {"0": 1, "1": 1}', "W .* is not an array"),
        ('"names": "ab", "C": [1, 2], "A": [1, 1], "W": [1, 1]', "names 'ab' is not an array of strings"),
        ('"names": ["a", 2], "C": [1, 2], "A": [1, 1], "W": [1, 1]', "is not an array of strings"),
    ],
)
def test_json_column_that_is_not_numbers_is_named(tmp_path, columns, message):
    path = tmp_path / "profile.json"
    path.write_text("{" + columns + "}")
    with pytest.raises(ProfileError, match=message):
        load_profile(str(path))


@pytest.mark.parametrize(
    "name, text, columns",
    [
        ("profile.json", '{"C": [1, 2], "c": [5, 6], "A": [1, 1], "W": [1, 1]}', "'C' and 'c'"),
        ("profile.csv", "C,compute_ms,A,W\n1,5,1,1\n2,6,1,1\n", "'C' and 'compute_ms'"),
        ("profile.csv", "C,C,A,W\n1,5,1,1\n2,6,1,1\n", "'C' and 'C'"),
    ],
    ids=["json-case", "csv-alias", "csv-repeat"],
)
def test_two_columns_for_one_field_are_refused(tmp_path, name, text, columns):
    # the later column used to win in silence
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ProfileError, match=f"two columns for one field: {columns}"):
        load_profile(str(path))


def test_repeated_json_key_is_refused(tmp_path):
    # the later of two equal keys used to win in silence: c read [5, 6]
    path = tmp_path / "profile.json"
    path.write_text('{"C": [1, 2], "C": [5, 6], "A": [1, 1], "W": [1, 1]}')
    with pytest.raises(ProfileError, match="repeated key 'C'"):
        load_profile(str(path))
