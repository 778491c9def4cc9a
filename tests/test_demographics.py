import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echolens.demographics import (RACE_CATEGORIES, DemographicAnnotation,
                                   Gazetteer, NameModel, NgramNameClassifier,
                                   ProperNounLexicon, annotate_users, classify_race,
                                   default_data_path, demographic_distribution,
                                   geolocate_country,
                                   load_continents, load_gazetteer, load_name_lists,
                                   load_training_names, normalize_name,
                                   read_annotations, write_annotations)

from _oracles import reference_posterior
from conftest import make_tweet, make_user


@pytest.fixture(scope="module")
def gaz():
    return load_gazetteer(default_data_path("gazetteer.csv"))


@pytest.fixture(scope="module")
def continents():
    return load_continents(default_data_path("continents.csv"))


class TestGeolocation:
    def test_coordinates_inside_kenya_box(self, gaz):
        t = make_tweet("t1", lat=-1.29, lon=36.82)
        assert geolocate_country(t, gaz) == "KE"

    def test_place_name_lookup(self, gaz):
        t = make_tweet("t1", place_name="Nairobi")
        assert geolocate_country(t, gaz) == "KE"

    def test_place_lookup_case_insensitive(self, gaz):
        t = make_tweet("t1", place_name="nairobi")
        assert geolocate_country(t, gaz) == "KE"

    def test_unknown_everything_is_none(self, gaz):
        t = make_tweet("t1", place_name="Atlantis")
        assert geolocate_country(t, gaz) is None
        assert geolocate_country(make_tweet("t2"), gaz) is None

    def test_boxes_checked_in_file_order(self):
        g = Gazetteer(boxes=[(-10, -10, 10, 10, "AA"), (-10, -10, 10, 10, "BB")])
        assert g.lookup_coordinates(0.0, 0.0) == "AA"

    def test_coordinates_win_over_place_name(self, gaz):
        t = make_tweet("t1", lat=51.5, lon=-0.12, place_name="Nairobi")
        assert geolocate_country(t, gaz) == "GB"

    def test_continent_lookup(self, continents, name_model, lexicon):
        assert continents_of({"KE": "ke", "br": "br", "ZZ": "zz", None: None}, continents,
                             name_model, lexicon) == {
            "KE": "Africa", "br": "South America", "ZZ": None, None: None}

    def test_continent_table_is_the_one_passed(self, tmp_path, name_model, lexicon):
        path = tmp_path / "continents.csv"
        path.write_text("country,continent\n ke , Atlantis \n", encoding="utf-8")
        table = load_continents(path)
        assert table == {"KE": "Atlantis"}
        assert continents_of({"ke": "ke", "BR": "br"}, table, name_model, lexicon) == {
            "ke": "Atlantis", "BR": None}


def continents_of(countries, continents, model, lexicon):
    """{country: the continent annotate_users gives a user whose one tweet
    is placed there}, from {country: place name}; a place of None leaves the
    user unlocated. The gazetteer maps each place name to its country."""
    gaz = Gazetteer(entries={place: country for country, place in countries.items()
                             if place is not None})
    users = [make_user(f"u{i}") for i in range(len(countries))]
    tweets = [make_tweet(f"t{i}", author_id=f"u{i}", place_name=place)
              for i, place in enumerate(countries.values())]
    annotations = annotate_users(users, tweets, gaz, continents, model, lexicon)
    assert [annotations[f"u{i}"].country for i in range(len(countries))] == list(countries)
    return {country: annotations[f"u{i}"].continent for i, country in enumerate(countries)}


class TestNgramClassifier:
    def test_two_name_posterior_matches_hand_computation(self):
        model = NgramNameClassifier(ngram=3).fit(["kim", "smith"],
                                                 ["asian", "white"])
        # Hand derivation. Grams: "kim" -> ^ki, kim, im$ (3 grams);
        # "smith" -> ^sm, smi, mit, ith, th$ (5 grams). Vocabulary size 8.
        # For "kim" under Asian: each gram seen once, so ((1+1)/(3+8))^3;
        # under White: unseen, ((0+1)/(5+8))^3. Priors are 1/2 each.
        asian_likelihood = (2.0 / 11.0) ** 3
        white_likelihood = (1.0 / 13.0) ** 3
        expected_asian = asian_likelihood / (asian_likelihood + white_likelihood)
        posterior = model.posterior("kim")
        assert abs(posterior["Asian"] - expected_asian) < 1e-9
        assert abs(posterior["White"] - (1.0 - expected_asian)) < 1e-9
        assert posterior["Hispanic"] == 0.0 and posterior["African"] == 0.0

    def test_posteriors_sum_to_one(self):
        names, labels = load_training_names(default_data_path("classifier_names.csv"))
        model = NgramNameClassifier().fit(names, labels)
        for probe in ("tanaka", "garcia", "mwangi", "schneider", "xyz"):
            assert abs(sum(model.posterior(probe).values()) - 1.0) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", min_size=1, max_size=20))
    def test_posterior_sum_property(self, name):
        names, labels = load_training_names(default_data_path("classifier_names.csv"))
        model = NgramNameClassifier().fit(names, labels)
        posterior = model.posterior(name)
        total = sum(posterior.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            NgramNameClassifier().fit(["kim"], ["martian"])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.text(alphabet="abcé -", min_size=1, max_size=12),
                              st.sampled_from(["asian", "Latino", "african", "white",
                                               "east_asian"])),
                    min_size=1, max_size=12),
           st.text(alphabet="abcdé -", max_size=14), st.integers(2, 4))
    def test_posterior_equals_reference(self, training, name, ngram):
        names, labels = zip(*training)
        if not any(normalize_name(text) for text in names):
            # No gram to smooth over: every likelihood would divide by zero.
            with pytest.raises(ValueError, match="training names have no letters"):
                NgramNameClassifier(ngram=ngram).fit(names, labels)
            return
        model = NgramNameClassifier(ngram=ngram).fit(names, labels)
        assert model.posterior(name) == reference_posterior(names, labels, name, ngram)


@pytest.fixture(scope="module")
def name_model():
    names, labels = load_training_names(default_data_path("classifier_names.csv"))
    return NameModel(
        census_lists=load_name_lists(default_data_path("name_lists.csv")),
        classifier=NgramNameClassifier().fit(names, labels),
        tau=0.6,
    )


class TestClassifyRace:
    def test_latino_list_hit(self, name_model):
        assert classify_race("Emma Garcia", name_model) == "Hispanic"

    def test_black_list_hit(self, name_model):
        assert classify_race("Kofi Okafor", name_model) == "African"

    def test_east_asian_classifier_output_folds_to_asian(self):
        model = NameModel(
            census_lists=[],
            classifier=NgramNameClassifier().fit(
                ["Tanaka", "Suzuki", "Watanabe", "Smith", "Jones", "Brown"],
                ["east_asian", "east_asian", "east_asian",
                 "european", "european", "european"]),
            tau=0.5,
        )
        assert classify_race("Tanaka", model) == "Asian"

    def test_below_threshold_is_inconclusive(self, name_model):
        strict = NameModel(census_lists=name_model.census_lists,
                           classifier=name_model.classifier, tau=0.999999)
        assert classify_race("Quirkyblob Zzyzx", strict) == "Inconclusive"

    def test_empty_name_is_inconclusive(self, name_model):
        assert classify_race("", name_model) == "Inconclusive"
        assert classify_race("12345", name_model) == "Inconclusive"

    def test_list_precedence_beats_classifier(self):
        # Twenty names the classifier would call Asian with high confidence,
        # all also present on the white-voters list: the list must win.
        surnames = [f"{stem}moto" for stem in
                    ("aki", "fuji", "hana", "iwa", "kawa", "kuro", "mats",
                     "miya", "naka", "nishi", "oka", "saka", "shima", "sugi",
                     "taka", "tera", "uchi", "yama", "yoshi", "waka")]
        classifier = NgramNameClassifier().fit(
            surnames + ["smith", "jones", "brown"],
            ["japanese"] * len(surnames) + ["european"] * 3)
        model = NameModel(census_lists=[("White", set(surnames))],
                          classifier=classifier, tau=0.6)
        for surname in surnames:
            posterior = classifier.posterior(surname)
            assert posterior["Asian"] > 0.6  # classifier alone would say Asian
            assert classify_race(surname.title(), model) == "White"

    def test_always_one_of_five_categories(self, name_model):
        for name in ("Emma Garcia", "Tanaka Hiroshi", "zzz", "", "Mwangi",
                     "Lucia Moreno", "Unusualword"):
            assert classify_race(name, name_model) in RACE_CATEGORIES

    def test_list_order_gives_precedence(self, name_model):
        lists_a = [("Hispanic", {"cruz"}), ("African", {"cruz"})]
        lists_b = [("African", {"cruz"}), ("Hispanic", {"cruz"})]
        for lists, expected in ((lists_a, "Hispanic"), (lists_b, "African")):
            model = NameModel(census_lists=lists, classifier=name_model.classifier, tau=0.0)
            assert classify_race("Cruz", model) == expected
            assert classify_race("Ana Cruz", model) == expected


@pytest.fixture(scope="module")
def lexicon():
    return ProperNounLexicon.from_files(default_data_path("given_names.csv"),
                                        default_data_path("stopwords.txt"))


def eligible(users, lexicon, name_model):
    """The ids annotate_users marks eligible youth, in input order."""
    annotations = annotate_users(users, [], Gazetteer(), {}, name_model, lexicon)
    return [user.user_id for user in users if annotations[user.user_id].eligible_youth]


class TestEligibility:
    def test_over_25_excluded(self, lexicon, name_model):
        user = make_user("u1", display_name="Amina Diallo",
                         has_profile_photo=True, face_count=1, age_estimate=26)
        assert eligible([user], lexicon, name_model) == []

    def test_under_13_excluded(self, lexicon, name_model):
        user = make_user("u1", has_profile_photo=True, face_count=1,
                         age_estimate=12)
        assert eligible([user], lexicon, name_model) == []

    def test_no_proper_noun_excluded(self, lexicon, name_model):
        user = make_user("u1", display_name="sunflower vibes")
        assert eligible([user], lexicon, name_model) == []
        capped = make_user("u2", display_name="Sunflower Vibes")
        assert eligible([capped], lexicon, name_model) == []

    def test_boundary_age_with_face_included(self, lexicon, name_model):
        user = make_user("u1", display_name="Amina Diallo",
                         has_profile_photo=True, face_count=1, age_estimate=25)
        assert eligible([user], lexicon, name_model) == ["u1"]

    def test_unannotated_age_still_eligible(self, lexicon, name_model):
        user = make_user("u1", display_name="Amina Diallo")
        assert eligible([user], lexicon, name_model) == ["u1"]

    def test_monotone_under_additions(self, lexicon, name_model):
        a = make_user("u1", display_name="Amina Diallo")
        b = make_user("u2", display_name="sunflower vibes")
        assert "u1" in eligible([a], lexicon, name_model)
        assert "u1" in eligible([a, b], lexicon, name_model)

    def test_age_rule_reads_the_estimate_the_photo_rules_drop(self, lexicon, name_model):
        # Without a single-face photo the annotation carries no age, yet an
        # over-25 estimate still excludes the user.
        user = make_user("u1", display_name="Amina Diallo", age_estimate=40)
        annotation = annotate_users([user], [], Gazetteer(), {}, name_model, lexicon)["u1"]
        assert annotation.age is None and not annotation.eligible_youth


class TestAnnotations:
    def test_photo_rules_gate_age_gender_only(self, gaz, continents, name_model, lexicon):
        users = [make_user("u1", display_name="Amina Diallo",
                           has_profile_photo=False)]
        anns = annotate_users(users, [], gaz, continents, name_model, lexicon)
        ann = anns["u1"]
        assert ann.age is None and ann.gender is None
        assert ann.eligible_youth  # still in race/topic analyses
        assert ann.race in RACE_CATEGORIES

    def test_country_from_majority_of_tweets(self, gaz, continents, name_model, lexicon):
        users = [make_user("u1", display_name="Amina Diallo")]
        tweets = [make_tweet("t1", author_id="u1", place_name="Nairobi"),
                  make_tweet("t2", author_id="u1", place_name="Nairobi"),
                  make_tweet("t3", author_id="u1", place_name="London")]
        ann = annotate_users(users, tweets, gaz, continents, name_model, lexicon)["u1"]
        assert ann.country == "KE"
        assert ann.continent == "Africa"

    def test_round_trip_ndjson(self, tmp_path, gaz, continents, name_model, lexicon):
        users = [make_user("u1", display_name="Amina Diallo",
                           has_profile_photo=True, face_count=1,
                           age_estimate=20, gender_estimate="female")]
        anns = annotate_users(users, [], gaz, continents, name_model, lexicon)
        path = tmp_path / "annotations.ndjson"
        write_annotations(path, anns)
        assert read_annotations(path) == anns


class TestDistribution:
    def make(self, races):
        return {f"u{i}": DemographicAnnotation(user_id=f"u{i}", race=r)
                for i, r in enumerate(races)}

    def test_hand_worked_shares(self):
        buckets, missing = demographic_distribution(
            self.make(["White", "White", "Asian", "African"]), axis="race")
        assert buckets == {"African": (1, 0.25), "Asian": (1, 0.25), "White": (2, 0.5)}
        assert list(buckets) == ["African", "Asian", "White"]
        assert missing == 0

    def test_single_user_full_share(self):
        assert demographic_distribution(self.make(["Asian"]), axis="race") == (
            {"Asian": (1, 1.0)}, 0)

    def test_all_missing(self):
        anns = {uid: DemographicAnnotation(user_id=uid) for uid in ("u1", "u2")}
        assert demographic_distribution(anns, axis="continent") == ({}, 2)

    def test_empty_gives_empty_distribution(self):
        # The report stage relies on this when no studied user is annotated.
        for axis in ("continent", "race", "gender"):
            assert demographic_distribution({}, axis=axis) == ({}, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(RACE_CATEGORIES), min_size=1, max_size=40))
    def test_shares_sum_to_one(self, races):
        buckets, _ = demographic_distribution(self.make(races), axis="race")
        assert abs(sum(share for _, share in buckets.values()) - 1.0) < 1e-9
