//! The workload generators are pure functions of the workload seed.

use info_rdl::model::write_package;
use perfbench::gen::{self, ServeReq};

const N: usize = 200;

#[test]
fn circuits_are_byte_identical_across_builds() {
    let texts = gen::texts(&gen::dense1_family());
    assert_eq!(texts, gen::texts(&gen::dense1_family()));
    assert_eq!(texts.len(), gen::DENSE1_FAMILY);
    // Distinct family members, dense1 itself first.
    assert_eq!(texts[0], write_package(&info_rdl::generators::dense(1)));
    assert!(texts.windows(2).all(|w| w[0] != w[1]));
}

#[test]
fn same_seed_same_edits_and_request_lines() {
    let bases = gen::dense1_family();
    let texts = gen::texts(&bases);
    let nets: Vec<usize> = bases.iter().map(|b| b.nets().len()).collect();
    for seed in [0, 7, u64::MAX] {
        assert_eq!(
            gen::eco_edits(seed, &bases, N),
            gen::eco_edits(seed, &bases, N)
        );
        let lines = |s| -> Vec<String> {
            gen::serve_stream(s, &nets, N)
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    let (ServeReq::Route { circuit } | ServeReq::Delete { circuit, .. }) = r;
                    gen::request_line(&format!("r{i}"), r, &texts[circuit])
                })
                .collect()
        };
        assert_eq!(lines(seed), lines(seed));
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let bases = gen::dense1_family();
    let nets: Vec<usize> = bases.iter().map(|b| b.nets().len()).collect();
    let (a, b) = (gen::eco_edits(1, &bases, N), gen::eco_edits(2, &bases, N));
    // The reference prefix is shared; the seeded rest differs.
    let r = gen::REFERENCE_EDITS;
    assert_eq!(a[..r], b[..r]);
    assert_ne!(a[r..], b[r..]);
    assert_ne!(
        gen::serve_stream(1, &nets, N),
        gen::serve_stream(2, &nets, N)
    );
}

#[test]
fn every_generated_edit_plans() {
    let bases = gen::dense1_family();
    for seed in 0..5 {
        for e in gen::eco_edits(seed, &bases, N) {
            let plan = e.changes().plan(&bases[e.base]);
            assert!(
                plan.is_ok(),
                "seed {seed}: {e:?} does not plan: {:?}",
                plan.err()
            );
        }
    }
    let nets: Vec<usize> = bases.iter().map(|b| b.nets().len()).collect();
    for seed in 0..5 {
        for r in gen::serve_stream(seed, &nets, N) {
            if let ServeReq::Delete { circuit, net } = r {
                let changes = info_rdl::EcoChangeSet::new().remove_net(net);
                assert!(
                    changes.plan(&bases[circuit]).is_ok(),
                    "seed {seed}: {r:?} does not plan"
                );
            }
        }
    }
}

#[test]
fn serve_stream_alternates_and_cycles_the_pool() {
    let nets = [22, 22, 22];
    let s = gen::serve_stream(3, &nets, 60);
    for (i, r) in s.iter().enumerate() {
        assert_eq!(
            matches!(r, ServeReq::Route { .. }),
            i % 2 == 0,
            "request {i}: {r:?}"
        );
    }
    let mut per_circuit = [0; 3];
    for r in &s {
        if let ServeReq::Route { circuit } = r {
            per_circuit[*circuit] += 1;
        }
    }
    assert_eq!(per_circuit, [10, 10, 10]);
}
