//! The indexed suite against the scans it replaced: on random data and
//! releases rich in duplicate and empty QID rows, with row churn between
//! releases, [`run_attack_suite`] must produce the same report, byte for
//! byte, as the same driver over the `#[cfg(test)]` scan oracles.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use cahd_core::{AnonymizedGroup, PublishedDataset};
use cahd_data::{SensitiveSet, TransactionSet};

use super::*;
use crate::adversary::background::tests::background_point_scan;
use crate::adversary::intersection::tests::intersection_report_scan;
use crate::attack::tests::attack_published_scan;

/// [`run_attack_suite`] with every attacker on its scan oracle.
fn run_attack_suite_scan(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    targets: &[AttackTarget<'_>],
    plan: &AttackPlan,
) -> AttackReport {
    let mut curves = Vec::new();
    let mut vulnerable = Vec::new();
    for (ti, t) in targets.iter().enumerate() {
        let curve = |attacker: &str, points: Vec<CurvePoint>| SuccessCurve {
            attacker: attacker.to_string(),
            target: t.name.clone(),
            points,
        };
        if plan.wants(ATTACKER_BACKGROUND) {
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    let seed = derive_seed(plan.seed, stream(0, ti, k));
                    background_point_scan(data, sensitive, t.published, k, plan, seed)
                })
                .collect();
            curves.push(curve(ATTACKER_BACKGROUND, points));
        }
        if plan.wants(ATTACKER_LINKAGE) {
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    let seed = derive_seed(plan.seed, stream(1, ti, k));
                    let mut rng = StdRng::seed_from_u64(seed);
                    let outcome = match t.published {
                        Some(r) => {
                            attack_published_scan(data, sensitive, r, k, plan.trials, &mut rng)
                        }
                        None => crate::attack_raw(data, sensitive, k, plan.trials, &mut rng),
                    };
                    linkage_point(k, outcome)
                })
                .collect();
            curves.push(curve(ATTACKER_LINKAGE, points));
        }
        if let (true, Some(published)) = (plan.wants(ATTACKER_INTERSECTION), t.published) {
            let points = plan
                .ks
                .iter()
                .map(|&k| {
                    let seed = derive_seed(plan.seed, stream(2, ti, k));
                    let names = std::slice::from_ref(&t.name);
                    intersection_report_scan(
                        data,
                        sensitive,
                        &[published],
                        names,
                        k,
                        plan.trials,
                        seed,
                    )
                    .to_point(k)
                })
                .collect();
            curves.push(curve(ATTACKER_INTERSECTION, points));
        }
        if plan.wants(ATTACKER_VULNERABLE) {
            let mut report =
                vulnerable::vulnerable_scan(data, sensitive, t.published, p, plan.epsilon);
            curves.push(curve(ATTACKER_VULNERABLE, vec![report.to_point()]));
            report.target = t.name.clone();
            vulnerable.push(report);
        }
    }
    let released: Vec<&AttackTarget<'_>> =
        targets.iter().filter(|t| t.published.is_some()).collect();
    let mut intersections = Vec::new();
    if plan.wants(ATTACKER_INTERSECTION) && released.len() >= 2 {
        let releases: Vec<&PublishedDataset> =
            released.iter().filter_map(|t| t.published).collect();
        let names: Vec<String> = released.iter().map(|t| t.name.clone()).collect();
        for (ki, &k) in plan.ks.iter().enumerate() {
            let seed = derive_seed(plan.seed, stream(3, targets.len() + ki, k));
            intersections.push(intersection_report_scan(
                data,
                sensitive,
                &releases,
                &names,
                k,
                plan.trials,
                seed,
            ));
        }
    }
    AttackReport {
        seed: plan.seed,
        p,
        curves,
        vulnerable,
        intersections,
    }
}

const N_ITEMS: usize = 12;
const SENSITIVE: [u32; 2] = [10, 11];

/// A release of the transactions `keep` selects, in a seeded order, cut
/// into groups of the cycled `sizes`.
fn release_of(
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    seed: u64,
    sizes: &[usize],
    keep: impl Fn(u32) -> bool,
) -> PublishedDataset {
    let mut ids: Vec<u32> = (0..data.n_transactions() as u32)
        .filter(|&t| keep(t))
        .collect();
    ids.sort_by_key(|&t| derive_seed(seed, u64::from(t)));
    let mut groups = Vec::new();
    let mut rest = ids.as_slice();
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (members, tail) = rest.split_at(size.min(rest.len()));
        groups.push(AnonymizedGroup::from_members(data, sensitive, members));
        rest = tail;
    }
    PublishedDataset {
        n_items: N_ITEMS,
        sensitive_items: SENSITIVE.to_vec(),
        groups,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_suite_matches_scan_oracles(
        rows in collection::vec(collection::vec(0u32..N_ITEMS as u32, 0..5), 1..40),
        sizes in collection::vec(1usize..6, 1..4),
        seeds in (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        knobs in (0usize..3, 0usize..2, 1usize..5),
    ) {
        let data = TransactionSet::from_rows(&rows, N_ITEMS);
        let sensitive = SensitiveSet::new(SENSITIVE.to_vec(), N_ITEMS);
        let (release_seed, churn_seed, plan_seed) = seeds;
        let (wrong_items, phi, p) = knobs;
        let a = release_of(&data, &sensitive, release_seed, &sizes, |_| true);
        let b = release_of(&data, &sensitive, release_seed ^ 1, &[p.max(2)], |_| true);
        // Row churn: the re-release drops about a third of the rows.
        let churned = release_of(&data, &sensitive, churn_seed, &sizes, |t| {
            !derive_seed(churn_seed, u64::from(t)).is_multiple_of(3)
        });
        let targets = [
            AttackTarget::raw(),
            AttackTarget::release("a", &a),
            AttackTarget::release("b", &b),
            AttackTarget::release("churned", &churned),
        ];
        let plan = AttackPlan {
            seed: plan_seed,
            ks: vec![1, 2, 3],
            trials: 24,
            phi: [0.5, 1.5][phi],
            wrong_items,
            ..AttackPlan::default()
        };
        let fast = run_attack_suite(&data, &sensitive, p, &targets, &plan);
        let scan = run_attack_suite_scan(&data, &sensitive, p, &targets, &plan);
        prop_assert_eq!(
            serde_json::to_string(&fast).unwrap(),
            serde_json::to_string(&scan).unwrap()
        );
        prop_assert_eq!(fast, scan);
    }
}
