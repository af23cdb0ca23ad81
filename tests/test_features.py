"""Hand-computed feature-vector tests (F1-F4, FIXTURES scenario 26)."""
from wikidata_edit_history_ray.core import features as F


class TestLevenshtein:
    def test_basic(self):
        assert F.levenshtein_distance("kitten", "sitting") == 3
        assert F.levenshtein_distance("", "abc") == 3
        assert F.levenshtein_distance("abc", "abc") == 0
        assert F.levenshtein_distance("flaw", "lawn") == 2

    def test_known_answers_pin_shared_oracle(self):
        """The conformance shim feeds this SAME implementation to the
        reference as its Levenshtein module — these independent known-answer
        cases keep a shared bug from passing conformance undetected."""
        assert F.levenshtein_distance("saturday", "sunday") == 3
        assert F.levenshtein_distance("intention", "execution") == 5
        assert F.levenshtein_distance("gumbo", "gambol") == 2
        assert F.levenshtein_distance("a" * 40, "a" * 39 + "b") == 1
        assert F.levenshtein_distance("abcdefghij", "jihgfedcba") == 10
        assert F.levenshtein_distance("Ünïcødé", "Unicode") == 4
        assert F.levenshtein_distance("x" * 100, "") == 100

    def test_edit_operations_backtrace(self):
        ins, dels, subs = F._edit_operations("kitten", "sitting")
        assert (ins, dels, subs) == (1, 0, 2)

    def test_adjacent_swap(self):
        assert F.has_adjacent_swap("tent", "tetn") == 1
        assert F.has_adjacent_swap("caro", "caor") == 1
        assert F.has_adjacent_swap("abc", "abcd") == 0
        assert F.has_adjacent_swap("abcd", "acbd") == 1
        assert F.has_adjacent_swap("abcd", "badc") == 0  # two swaps


class TestTextFeatures:
    def test_full_text_vector(self):
        r = F.create_text_features("text", '"hello world"', '"hello there world"')
        (token_overlap, old_in_new, new_in_old, edr, complete,
         length_diff, tc_old, tc_new, lev, same_special, special_diff,
         ins, dels, subs, swap, has_prefix, has_suffix) = r
        assert token_overlap == 2 / 3
        assert old_in_new == 0 and new_in_old == 0
        assert complete == 0
        assert length_diff == 6 and tc_old == 2 and tc_new == 3
        assert lev == 6 and ins == 6 and dels == 0 and subs == 0
        assert has_prefix == 1 and has_suffix == 1

    def test_complete_replacement(self):
        r = F.create_text_features("text", "aaa", "zzz")
        assert r[4] == 1  # complete_replacement

    def test_entity_variant_short_vector(self):
        r = F.create_text_features("entity", "a", "b")
        assert len(r) == 5


class TestTimeFeatures:
    def test_simple_day_shift(self):
        r = F.create_time_features("+2020-01-10T00:00:00Z", "+2020-01-15T00:00:00Z")
        (diff, sign, one_to_zero, day_add, day_rm, mon_add, mon_rm,
         dy, dd, dm) = r
        assert diff == 5
        assert sign == 0  # different dates => value[1:] differs
        assert (dy, dm) == (0, 0) and dd == 1

    def test_year_change(self):
        r = F.create_time_features("+2013-10-28T00:00:00Z", "+2014-10-28T00:00:00Z")
        assert r[0] == 365  # int(1 * 365.25)
        assert r[7] == 1  # different_year

    def test_refinement_not_a_day_change(self):
        # 2020-01-01 -> 2020-05-10 is a refinement (month/day added)
        r = F.create_time_features("+2020-01-01T00:00:00Z", "+2020-05-10T00:00:00Z")
        assert r[3] == 1  # day_added
        assert r[5] == 1  # month_added
        assert r[8] == 0 and r[9] == 0  # not flagged as real day/month change

    def test_placeholder_to_zero(self):
        r = F.create_time_features("+2020-01-01T00:00:00Z", "+2020-00-00T00:00:00Z")
        assert r[2] == 1

    def test_bce_year(self):
        r = F.create_time_features("-0044-03-15T00:00:00Z", "-0043-03-15T00:00:00Z")
        assert r[7] == 1  # different_year
        assert r[0] == 365

    def test_sign_only_change(self):
        r = F.create_time_features("+2020-01-01T00:00:00Z", "-2020-01-01T00:00:00Z")
        assert r[1] == 1  # sign_change


class TestQuantityFeatures:
    def test_precision_only_change(self):
        r = F.create_quantity_features('"+12.5"', '"+12.55"')
        sign, precision, inc, dec, whole, oin, nio, same = r
        assert precision == 1 and whole == 0 and sign == 0
        assert oin == 1 and inc == 1

    def test_int_to_decimal_not_precision_change(self):
        r = F.create_quantity_features('"+12"', '"+12.0"')
        assert r[1] == 0  # 12 -> 12.0 is not a precision change
        assert r[7] == 1  # same_float_value

    def test_sign_change_same_whole(self):
        r = F.create_quantity_features('"+12.5"', '"-12.5"')
        assert r[0] == 1 and r[4] == 0

    def test_whole_number_change(self):
        r = F.create_quantity_features('"+12"', '"+13"')
        assert r[4] == 1 and r[0] == 0

    def test_amount_not_a_finite_number(self):
        # a JSON `true` amount, NaN and infinities: no float comparison
        for old, new in ((True, '"+12"'), ('"+12"', "true"), ('"nan"', '"+1"'),
                         ('"+inf"', '"+inf"'), ('"-1e400"', '"+1"')):
            sign, _, _, _, whole, _, _, same = F.create_quantity_features(
                old, new)
            assert (sign, whole, same) == (0, 0, 0), (old, new)


class TestGlobeFeatures:
    def test_precision_and_containment(self):
        old = '{"longitude": 13.4, "latitude": 52.5}'
        new = '{"longitude": 13.4, "latitude": 52.52}'
        r = F.create_globe_coordinate_features(old, new)
        (lat_sign, lon_sign, lat_whole, lon_whole, lat_prec, lon_prec,
         lat_inc, lat_dec, lon_inc, lon_dec, lat_oin, lat_nio, lat_same,
         lon_oin, lon_nio, lon_same) = r
        assert lat_prec == 1 and lon_prec == 0
        assert lat_oin == 1 and lat_inc == 1
        assert lon_same == 1 and lat_same == 0
        assert lat_whole == 0 and lat_sign == 0

    def test_lat_sign_change(self):
        old = '{"longitude": 10.0, "latitude": 52.5}'
        new = '{"longitude": 10.0, "latitude": -52.5}'
        r = F.create_globe_coordinate_features(old, new)
        assert r[0] == 1  # latitude_sign_change
        assert r[2] == 0  # whole number same


class TestLevenshteinDifferential:
    def test_fast_paths_match_plain_dp(self):
        """Trimming + Myers bit-parallel scan vs the plain DP on adversarial
        small-alphabet strings (ties everywhere) and across the 64-char
        word-size threshold."""
        import random

        def dp(a, b):
            if len(a) > len(b):
                a, b = b, a
            prev = list(range(len(a) + 1))
            for j, cb in enumerate(b, 1):
                curr = [j]
                for i, ca in enumerate(a, 1):
                    curr.append(min(prev[i] + 1, curr[i - 1] + 1,
                                    prev[i - 1] + (ca != cb)))
                prev = curr
            return prev[-1]

        rng = random.Random(7)
        for _ in range(4000):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 14)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 14)))
            assert F.levenshtein_distance(a, b) == dp(a, b), (a, b)
        for _ in range(150):
            a = "".join(rng.choice("ab") for _ in range(rng.randint(55, 90)))
            b = "".join(rng.choice("ab") for _ in range(rng.randint(55, 90)))
            assert F.levenshtein_distance(a, b) == dp(a, b)

    def test_edit_ops_trim_matches_untrimmed_backtrace(self):
        import random

        def ops_ref(old, new):
            m, n = len(old), len(new)
            dp_ = [[0] * (n + 1) for _ in range(m + 1)]
            for i in range(m + 1):
                dp_[i][0] = i
            for j in range(n + 1):
                dp_[0][j] = j
            for i in range(1, m + 1):
                oi = old[i - 1]
                for j in range(1, n + 1):
                    if oi == new[j - 1]:
                        dp_[i][j] = dp_[i - 1][j - 1]
                    else:
                        dp_[i][j] = 1 + min(dp_[i - 1][j], dp_[i][j - 1],
                                            dp_[i - 1][j - 1])
            i, j = m, n
            ins = dels = subs = 0
            while i > 0 or j > 0:
                if i > 0 and j > 0 and old[i - 1] == new[j - 1]:
                    i -= 1
                    j -= 1
                elif i > 0 and j > 0 and dp_[i][j] == dp_[i - 1][j - 1] + 1:
                    subs += 1
                    i -= 1
                    j -= 1
                elif j > 0 and dp_[i][j] == dp_[i][j - 1] + 1:
                    ins += 1
                    j -= 1
                else:
                    dels += 1
                    i -= 1
            return ins, dels, subs

        rng = random.Random(11)
        for _ in range(4000):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
            assert F._edit_operations(a, b) == ops_ref(a, b), (a, b)
