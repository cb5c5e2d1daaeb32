//! Deterministic failover: a leader [`MasterCore`] and a standby replica
//! that hears only the leader's [`Decision`]s — plus the move acks and
//! checkpoint notes every master takes straight from the slaves — must
//! hold the same control state after every step of a random schedule of
//! arrivals and drains, slave deaths, readmissions, buddy checkpoint
//! notes, move acks and reorganisations (random occupancies, adaptive
//! degree of declustering on and off). Every decision must also address
//! only live slaves: a move leaves a live supplier, a re-home lands on a
//! live active slave.

use proptest::prelude::*;
use windjoin_core::{Decision, MasterCore, MovePlan, Params, Rehome, Side, Tuple};

const SLAVES: usize = 4;
const NPART: u32 = 12;

#[derive(Debug, Clone)]
enum Step {
    /// `n` left arrivals with keys from `key0` on, `gap` µs apart, then
    /// a drain of every slot.
    Traffic {
        key0: u64,
        n: u64,
        gap: u64,
    },
    Down(usize),
    Up(usize),
    /// A checkpoint note for `pid` from its owner's buddy (or, when
    /// `buddy` is false, from `holder` — usually refused).
    Note {
        pid: u32,
        buddy: bool,
        holder: usize,
        seen: u64,
    },
    /// An ack of the `pick`-th pending move, from its target or (when
    /// `wrong`) from another slave.
    Ack {
        pick: usize,
        wrong: bool,
    },
    Reorg {
        occupancy: Vec<f64>,
        adaptive_dod: bool,
    },
}

fn step() -> impl Strategy<Value = Step> {
    let slave = 0..SLAVES;
    let occupancy = (0usize..5).prop_map(|i| [0.0, 0.005, 0.2, 0.6, 0.9][i]);
    prop_oneof![
        3 => (0u64..500, 1u64..40, 1u64..20_000)
            .prop_map(|(key0, n, gap)| Step::Traffic { key0, n, gap }),
        2 => slave.clone().prop_map(Step::Down),
        2 => slave.clone().prop_map(Step::Up),
        3 => (0..NPART, any::<bool>(), slave, 0u64..1_000)
            .prop_map(|(pid, buddy, holder, seen)| Step::Note { pid, buddy, holder, seen }),
        4 => (any::<usize>(), 0u8..5)
            .prop_map(|(pick, wrong)| Step::Ack { pick, wrong: wrong == 0 }),
        3 => (proptest::collection::vec(occupancy, SLAVES..SLAVES + 1), any::<bool>())
            .prop_map(|(occupancy, adaptive_dod)| Step::Reorg { occupancy, adaptive_dod }),
    ]
}

fn params() -> Params {
    let mut p = Params::default_paper();
    p.npart = NPART;
    // A short window, so the sent log's retention horizon prunes.
    p.sem.w_left_us = 200_000;
    p.sem.w_right_us = 200_000;
    p.expiry_lag_us = 0;
    p
}

/// A decision may only address live slaves.
fn check_addresses(leader: &MasterCore, d: &Decision) {
    if let Decision::Reorg { moves, .. } = d {
        for mv in moves {
            prop_assert!(leader.is_live(mv.from), "move directive for dead supplier {}", mv.from);
        }
    }
    for r in d.rehomes() {
        let live_active = leader.is_live(r.to) && leader.active_slaves().contains(&r.to);
        prop_assert!(live_active, "re-home of {} onto inactive slave {}", r.pid, r.to);
    }
}

fn check_same(leader: &MasterCore, replica: &MasterCore) {
    prop_assert_eq!(leader.live_slaves(), replica.live_slaves());
    prop_assert_eq!(leader.active_slaves(), replica.active_slaves());
    let owners = |m: &MasterCore| (0..NPART).map(|p| m.partition_owner(p)).collect::<Vec<_>>();
    prop_assert_eq!(owners(leader), owners(replica));
    let pending = |m: &MasterCore| {
        let mut v: Vec<MovePlan> = m.pending_moves().to_vec();
        v.sort_by_key(|mv| mv.pid);
        v
    };
    prop_assert_eq!(pending(leader), pending(replica));
    prop_assert_eq!(leader.loss(), replica.loss());
    prop_assert_eq!(leader.checkpointed_partitions(), replica.checkpointed_partitions());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_replica_fed_the_leaders_decisions_holds_the_leaders_control_state(
        initial_active in 1..=SLAVES,
        seed in any::<u64>(),
        steps in proptest::collection::vec(step(), 1..80),
    ) {
        let mut leader = MasterCore::new(params(), SLAVES, initial_active, seed);
        let mut replica = MasterCore::new(params(), SLAVES, initial_active, seed);
        let (mut now, mut seq) = (0u64, 0u64);
        for step in steps {
            let decision = match step {
                // Traffic reaches the leader only; a replica does not
                // ingest, so its sent log stays empty.
                Step::Traffic { key0, n, gap } => {
                    for key in key0..key0 + n {
                        now += gap;
                        leader.on_arrival(Tuple::new(Side::Left, now, key, seq));
                        seq += 1;
                    }
                    for slot in 0..leader.params().ng {
                        leader.drain_for_slot(slot);
                    }
                    None
                }
                Step::Down(slave) => leader.on_slave_down(slave),
                Step::Up(slave) => leader.on_slave_up(slave),
                // Slave-reported facts reach every master directly.
                Step::Note { pid, buddy, holder, seen } => {
                    let holder =
                        if buddy { (leader.partition_owner(pid) + 1) % SLAVES } else { holder };
                    let registered = leader.note_checkpoint(pid, holder, seen, seen / 2);
                    prop_assert_eq!(registered, replica.note_checkpoint(pid, holder, seen, seen / 2));
                    None
                }
                Step::Ack { pick, wrong } => {
                    if let Some(&mv) = leader.pending_moves().get(pick % leader.pending_moves().len().max(1)) {
                        let at = if wrong { (mv.to + 1) % SLAVES } else { mv.to };
                        prop_assert_eq!(
                            leader.on_move_complete(mv.pid, at),
                            replica.on_move_complete(mv.pid, at)
                        );
                    }
                    None
                }
                // Occupancy reports are planning input only the leader
                // keeps.
                Step::Reorg { occupancy, adaptive_dod } => {
                    for s in leader.active_slaves() {
                        leader.on_occupancy(s, occupancy[s]);
                    }
                    Some(leader.plan_reorg(adaptive_dod))
                }
            };
            if let Some(d) = decision {
                prop_assert_eq!(d.validate(SLAVES, NPART), Ok(()));
                check_addresses(&leader, &d);
                replica.apply_decision(&d);
            }
            check_same(&leader, &replica);
        }
    }
}

/// What a standby checks before it takes a replicated entry: every
/// slave and partition a decision names must exist.
#[test]
fn a_decision_naming_a_slave_or_partition_outside_the_cluster_is_invalid() {
    let rehome = |pid, to| Rehome { pid, to, checkpoint: None };
    let down =
        |slave, rehomes| Decision::SlaveDown { slave, rehomes, groups_lost: 0, tuples_lost: 0 };
    let reorg = |moves, rehomes, activated| Decision::Reorg {
        moves,
        rehomes,
        activated,
        deactivated: None,
    };
    let mv = |pid, from, to| MovePlan { pid, from, to };
    let valid = [
        down(3, vec![rehome(11, 0)]),
        Decision::Readmit { slave: 0 },
        reorg(vec![mv(0, 1, 2)], vec![rehome(5, 3)], Some(3)),
    ];
    for d in &valid {
        assert_eq!(d.validate(SLAVES, NPART), Ok(()), "{d:?}");
    }
    let invalid = [
        down(SLAVES, Vec::new()),
        down(0, vec![rehome(NPART, 1)]),
        down(0, vec![rehome(1, 99)]),
        Decision::Readmit { slave: 99 },
        reorg(vec![mv(0, 1, 99)], Vec::new(), None),
        reorg(vec![mv(0, 99, 1)], Vec::new(), None),
        reorg(vec![mv(4000, 0, 1)], Vec::new(), None),
        reorg(Vec::new(), vec![rehome(4000, 0)], None),
        reorg(Vec::new(), Vec::new(), Some(SLAVES)),
        Decision::Reorg {
            moves: Vec::new(),
            rehomes: Vec::new(),
            activated: None,
            deactivated: Some(7),
        },
    ];
    for d in &invalid {
        assert!(d.validate(SLAVES, NPART).is_err(), "{d:?} passed");
    }
}
