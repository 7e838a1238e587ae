//! `BenchRecord` contracts on the committed `BENCH_rdl.json`: a no-edit
//! open/save round trip, the merge rule every bench binary relies on,
//! provenance stamping, and failures that leave the file untouched.

use info_bench::{fixed, obj, BenchRecord};
use info_router::serve::json::{self, Json};
use std::path::PathBuf;

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rdl.json");

/// A fresh copy of the committed record under the test's own name (tests
/// run in parallel and must not share a file).
fn committed_copy(name: &str) -> (PathBuf, Json) {
    let text = std::fs::read_to_string(COMMITTED).expect("committed BENCH_rdl.json");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, &text).expect("write scratch copy");
    (path, json::parse(&text).expect("committed record parses"))
}

fn reload(path: &PathBuf) -> Json {
    json::parse(&std::fs::read_to_string(path).expect("saved record")).expect("saved record parses")
}

fn circuit<'a>(doc: &'a Json, name: &str) -> &'a Json {
    let circuits = doc.get("circuits").and_then(Json::as_arr).expect("circuits array");
    circuits
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("{name} missing"))
}

fn provenance_threads(block: &Json) -> Option<f64> {
    let p = block.get("provenance")?;
    assert!(p.get("commit").and_then(Json::as_str).is_some_and(|c| !c.is_empty()));
    assert!(p.get("nproc").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
    assert!(p.get("unix_time").and_then(Json::as_f64).is_some());
    p.get("threads").and_then(Json::as_f64)
}

#[test]
fn committed_record_round_trips_unchanged() {
    let (path, before) = committed_copy("round_trip");
    BenchRecord::open(&path, 1).unwrap().save().unwrap();
    assert_eq!(reload(&path), before);
    let committed = std::fs::read_to_string(COMMITTED).unwrap();
    assert!(
        std::fs::read_to_string(&path).unwrap() == committed,
        "the committed record is not in the writer's layout"
    );
}

#[test]
fn table1_write_replaces_measured_circuits_and_carries_the_rest() {
    let (path, before) = committed_copy("table1_merge");
    let mut record = BenchRecord::open(&path, 1).unwrap();
    let fresh = |name: &str| {
        obj([("name", Json::Str(name.into())), ("routability_pct", fixed(12.3456, 3))])
    };
    let carried = record.merge("circuits", Json::Arr(vec![fresh("dense2"), fresh("dense1")]));
    assert_eq!(carried, ["dense3", "dense4", "dense5"]);
    record.save().unwrap();

    let after = reload(&path);
    let names: Vec<&str> = after
        .get("circuits")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|c| c.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["dense1", "dense2", "dense3", "dense4", "dense5"]);
    for name in ["dense1", "dense2"] {
        let block = circuit(&after, name);
        assert_eq!(block.get("routability_pct"), Some(&Json::Num(12.346)));
        assert_eq!(provenance_threads(block), Some(1.0), "{name} provenance");
    }
    for name in ["dense3", "dense4", "dense5"] {
        assert_eq!(circuit(&after, name), circuit(&before, name), "{name} carried");
        assert_eq!(
            circuit(&after, name).get("provenance"),
            circuit(&before, name).get("provenance"),
            "{name} was restamped"
        );
    }
    for key in ["eco", "loadtest", "drc_stress", "telemetry_overhead"] {
        assert_eq!(after.get(key), before.get(key), "{key} carried");
    }
}

#[test]
fn eco_write_merges_its_section_and_keeps_circuits() {
    let (path, before) = committed_copy("eco_merge");
    let mut record = BenchRecord::open(&path, 1).unwrap();
    let dense1 = obj([("nets", Json::Num(22.0)), ("eco_mean_ms", fixed(0.5, 2))]);
    let skipped = Json::Arr(vec![Json::Str("dense5".into())]);
    let carried = record.merge(
        "eco",
        Json::Obj(vec![("skipped".into(), skipped.clone()), ("dense1".into(), dense1)]),
    );
    assert_eq!(carried, ["dense2", "dense3"]);
    record.save().unwrap();

    let after = reload(&path);
    let eco = after.get("eco").and_then(Json::as_obj).unwrap();
    let keys: Vec<&str> = eco.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["dense1", "dense2", "dense3", "skipped"]);
    let fresh = after.get("eco").and_then(|e| e.get("dense1")).unwrap();
    assert_eq!(fresh.get("eco_mean_ms"), Some(&Json::Num(0.5)));
    assert_eq!(provenance_threads(fresh), Some(1.0));
    for name in ["dense2", "dense3"] {
        let old = before.get("eco").and_then(|e| e.get(name));
        assert_eq!(after.get("eco").and_then(|e| e.get(name)), old, "eco {name} carried");
    }
    assert_eq!(after.get("eco").and_then(|e| e.get("skipped")), Some(&skipped));
    for key in ["circuits", "loadtest", "bench", "drc_query_speedup"] {
        assert_eq!(after.get(key), before.get(key), "{key} carried");
    }
}

#[test]
fn loadtest_write_replaces_only_its_section() {
    let (path, before) = committed_copy("loadtest_set");
    let mut record = BenchRecord::open(&path, 4).unwrap();
    record.set("loadtest", obj([("jobs", Json::Num(8.0)), ("speedup", fixed(2.0 / 3.0, 2))]));
    record.save().unwrap();

    let after = reload(&path);
    let loadtest = after.get("loadtest").unwrap();
    assert_eq!(loadtest.get("speedup"), Some(&Json::Num(0.67)));
    assert_eq!(provenance_threads(loadtest), Some(4.0));
    let rest = |doc: &Json| -> Vec<(String, Json)> {
        doc.as_obj().unwrap().iter().filter(|(k, _)| k != "loadtest").cloned().collect()
    };
    assert_eq!(rest(&after), rest(&before));
}

#[test]
fn unparseable_record_is_an_error_and_left_untouched() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for (name, text) in [("truncated", "{\"eco\": {\"dense1\": "), ("not_an_object", "[1, 2]")] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).unwrap();
        let err = BenchRecord::open(&path, 1).expect_err("unparseable record must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name} touched");
    }
}

#[test]
fn failed_saves_are_errors_and_leave_the_file_untouched() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    // A missing file opens empty; a path in a missing directory cannot be
    // written.
    let mut record = BenchRecord::open(dir.join("no_such_dir/BENCH_rdl.json"), 1).unwrap();
    assert!(record.get("circuits").is_none());
    record.set("bench", Json::Str("rdl".into()));
    assert!(record.save().is_err());

    // A non-finite number does not survive the re-parse.
    let (path, _) = committed_copy("non_finite");
    let mut record = BenchRecord::open(&path, 1).unwrap();
    record.set("drc_query_speedup", Json::Num(f64::INFINITY));
    let err = record.save().expect_err("non-finite number must not be written");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        std::fs::read_to_string(COMMITTED).unwrap()
    );
}
