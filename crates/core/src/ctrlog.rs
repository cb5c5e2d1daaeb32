//! The replicated control plane: a quorum-acked decision log plus a
//! timer-driven leader election among master ranks.
//!
//! The master's control-plane state (membership, the partition map,
//! holds and pending moves, the checkpoint registry, the loss tally) is
//! a deterministic function of an ordered sequence of [`Decision`]s plus
//! the slave-reported acks and checkpoint notes every master hears
//! directly. The acting leader appends each decision to its
//! [`ControlLog`], broadcasts it to the standby masters, and holds the
//! decision's *side effects* (move directives, `Restore`s, the
//! collector's death notice) until a quorum of masters has acked the
//! entry. Leader and standbys change state through one function,
//! [`MasterCore::apply_decision`](crate::MasterCore::apply_decision):
//! the leader's planners apply what they decide, the standbys apply the
//! replicated decisions in log order to a shadow
//! [`MasterCore`](crate::MasterCore) — so a promoted standby resumes
//! from exactly the committed control state.
//!
//! Decisions replicate the leader's *outputs* (the computed re-homes and
//! moves, and the loss they charge), not its inputs: planning consults
//! occupancy reports, the sent log and a seeded RNG the standbys do not
//! share, so replaying inputs would diverge. Replaying outputs cannot.
//!
//! [`Election`] is a deliberately small Raft-flavoured vote: terms,
//! one vote per term, a candidate needs a majority, and a voter only
//! grants to candidates whose log is at least as long as its own.
//! Election timeouts are **rank-staggered** (standby `i` waits `i`
//! extra beacon intervals before campaigning), so the lowest surviving
//! master index wins deterministically instead of racing.
//!
//! ## Scope
//!
//! This is a single-failover control plane: there is no log catch-up
//! RPC, so a standby that missed an entry (possible only if the leader
//! died mid-broadcast) stays one entry behind until *it* would be
//! promoted. Surviving one leader death with a quorum of up-to-date
//! standbys — the chaos-tested guarantee — needs no catch-up; chained
//! master deaths would.

use crate::master::{MovePlan, Rehome};

/// One replicated control-plane state transition.
///
/// Every variant carries the *computed outcome* of the leader's
/// planning step, so applying a decision is deterministic on any rank.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A slave was declared dead and its partitions re-homed.
    SlaveDown {
        /// The dead slave's index.
        slave: usize,
        /// Its partitions re-homed at live slaves, restored from a
        /// checkpoint or installed empty.
        rehomes: Vec<Rehome>,
        /// Partition-groups charged as lost by this declaration.
        groups_lost: u64,
        /// Window tuples charged as lost (window-bounded estimate).
        tuples_lost: u64,
    },
    /// A dead slave came back and was parked for readmission.
    Readmit {
        /// The recovered slave's index.
        slave: usize,
    },
    /// A reorganization epoch's outcome (§IV-C / §V-A).
    Reorg {
        /// Planned partition-group movements.
        moves: Vec<MovePlan>,
        /// Orphans of a total-death episode, re-homed empty.
        rehomes: Vec<Rehome>,
        /// Slave newly added to the active set.
        activated: Option<usize>,
        /// Slave removed from the active set.
        deactivated: Option<usize>,
    },
}

impl Decision {
    /// The partitions this decision re-homes without a live supplier.
    pub fn rehomes(&self) -> &[Rehome] {
        match self {
            Decision::SlaveDown { rehomes, .. } | Decision::Reorg { rehomes, .. } => rehomes,
            Decision::Readmit { .. } => &[],
        }
    }

    /// Checks that every slave this decision names is below
    /// `total_slaves` and every partition below `npart` — what
    /// [`MasterCore::apply_decision`](crate::MasterCore::apply_decision)
    /// indexes by. A standby runs it on each replicated entry before
    /// taking it, since the entry came off a socket.
    pub fn validate(&self, total_slaves: usize, npart: u32) -> Result<(), String> {
        let (mut slaves, moves): (Vec<usize>, &[MovePlan]) = match self {
            Decision::SlaveDown { slave, .. } | Decision::Readmit { slave } => (vec![*slave], &[]),
            Decision::Reorg { moves, activated, deactivated, .. } => {
                (activated.iter().chain(deactivated).copied().collect(), moves)
            }
        };
        slaves.extend(moves.iter().flat_map(|m| [m.from, m.to]));
        slaves.extend(self.rehomes().iter().map(|r| r.to));
        if let Some(s) = slaves.into_iter().find(|&s| s >= total_slaves) {
            return Err(format!("names slave {s} of {total_slaves}"));
        }
        let mut pids = moves.iter().map(|m| m.pid).chain(self.rehomes().iter().map(|r| r.pid));
        if let Some(pid) = pids.find(|&pid| pid >= npart) {
            return Err(format!("names partition {pid} of {npart}"));
        }
        Ok(())
    }
}

/// One appended (not necessarily committed) log entry.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Leader term under which the entry was appended.
    pub term: u64,
    /// The replicated decision.
    pub decision: Decision,
    /// Per-master ack bitmap (the appender self-acks).
    acked: Vec<bool>,
}

/// The quorum-replicated decision log, held by every master rank.
///
/// The leader [`append`](ControlLog::append)s and collects
/// [`record_ack`](ControlLog::record_ack)s; standbys mirror entries via
/// [`append_replica`](ControlLog::append_replica). Entries commit in
/// strict prefix order once a majority of masters holds them;
/// [`take_committed`](ControlLog::take_committed) drains the newly
/// committed decisions so the driver can release their side effects.
#[derive(Debug)]
pub struct ControlLog {
    masters: usize,
    me: usize,
    entries: Vec<LogEntry>,
    commit: usize,
}

impl ControlLog {
    /// An empty log for master rank `me` of `masters`.
    pub fn new(masters: usize, me: usize) -> Self {
        assert!(masters >= 1 && me < masters);
        ControlLog { masters, me, entries: Vec::new(), commit: 0 }
    }

    /// Majority size: more than half of all provisioned masters.
    pub fn quorum(&self) -> usize {
        self.masters / 2 + 1
    }

    /// Total entries appended (committed or not).
    pub fn len(&self) -> u64 {
        self.entries.len() as u64
    }

    /// True when nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries committed so far (a prefix of the log).
    pub fn committed(&self) -> u64 {
        self.commit as u64
    }

    /// Leader append: the entry is self-acked; with a single master the
    /// quorum is 1 and it commits immediately. Returns the new entry's
    /// index.
    pub fn append(&mut self, term: u64, decision: Decision) -> u64 {
        let mut acked = vec![false; self.masters];
        acked[self.me] = true;
        self.entries.push(LogEntry { term, decision, acked });
        self.entries.len() as u64 - 1
    }

    /// Standby append: accepts the leader's entry only at the expected
    /// position (`index == len`), keeping the log gap-free. A standby
    /// that missed an entry ignores (and does not ack) everything after
    /// the gap. Returns whether the entry was accepted.
    pub fn append_replica(&mut self, term: u64, index: u64, decision: Decision) -> bool {
        if index != self.entries.len() as u64 {
            return false;
        }
        let mut acked = vec![false; self.masters];
        acked[self.me] = true;
        self.entries.push(LogEntry { term, decision, acked });
        // A replica holds nothing uncommitted of its own: everything it
        // accepted is (from its point of view) durable.
        true
    }

    /// The decision stored at `index`. A freshly promoted leader walks
    /// this to re-broadcast its whole log: replicas that missed the old
    /// leader's final entries accept the gap-fill (`append_replica` at
    /// `index == len`), replicas that already hold an entry reject the
    /// duplicate — either way the logs reconverge without a dedicated
    /// catch-up RPC.
    pub fn decision_at(&self, index: u64) -> Option<&Decision> {
        self.entries.get(index as usize).map(|e| &e.decision)
    }

    /// Records master `from`'s ack of entry `index` (out-of-range or
    /// duplicate acks are ignored).
    pub fn record_ack(&mut self, from: usize, index: u64) {
        if from >= self.masters {
            return;
        }
        if let Some(e) = self.entries.get_mut(index as usize) {
            e.acked[from] = true;
        }
    }

    /// Advances the commit point over every quorum-acked prefix entry
    /// and returns the newly committed decisions, in log order.
    pub fn take_committed(&mut self) -> Vec<Decision> {
        let quorum = self.quorum();
        let mut out = Vec::new();
        while let Some(e) = self.entries.get(self.commit) {
            if e.acked.iter().filter(|&&a| a).count() < quorum {
                break;
            }
            out.push(e.decision.clone());
            self.commit += 1;
        }
        out
    }
}

/// Where a master rank stands in the election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Appending decisions and driving the cluster.
    Leader,
    /// Mirroring the leader's log, watching its heartbeats.
    Follower,
    /// Campaigning for a majority after a leader timeout.
    Candidate,
}

/// Leader-election state for one master rank.
///
/// Rank 0 boots as the term-1 leader (no election needed for a healthy
/// start); everyone else follows it. The driver owns the timers: it
/// calls [`start_candidacy`](Election::start_candidacy) when the leader
/// has been silent past this rank's staggered deadline, and feeds
/// incoming vote traffic through the `on_*` methods.
#[derive(Debug)]
pub struct Election {
    masters: usize,
    me: usize,
    /// Current term (generation number stamped on control frames).
    pub term: u64,
    /// This rank's role.
    pub role: Role,
    /// The rank currently believed to lead, if any.
    pub leader: Option<usize>,
    voted_for: Option<(u64, usize)>,
    votes: Vec<bool>,
}

impl Election {
    /// Election state for master rank `me` of `masters`; rank 0 is the
    /// bootstrap leader at term 1.
    pub fn new(masters: usize, me: usize) -> Self {
        assert!(masters >= 1 && me < masters);
        Election {
            masters,
            me,
            term: 1,
            role: if me == 0 { Role::Leader } else { Role::Follower },
            leader: Some(0),
            voted_for: None,
            votes: vec![false; masters],
        }
    }

    /// Majority size.
    pub fn quorum(&self) -> usize {
        self.masters / 2 + 1
    }

    /// True while this rank leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// How many extra beacon intervals this rank waits beyond the base
    /// leader-silence deadline before campaigning. Staggering by master
    /// index makes the lowest surviving rank campaign first — and win —
    /// instead of racing split votes.
    pub fn stagger(&self) -> u32 {
        self.me as u32
    }

    /// Opens a candidacy: bumps the term, votes for self and (with a
    /// single-master "quorum") may win outright. Returns the campaign
    /// term for the driver's `VoteRequest` broadcast.
    pub fn start_candidacy(&mut self) -> u64 {
        self.term += 1;
        self.role = Role::Candidate;
        self.leader = None;
        self.voted_for = Some((self.term, self.me));
        self.votes = vec![false; self.masters];
        self.votes[self.me] = true;
        if self.quorum() == 1 {
            self.role = Role::Leader;
            self.leader = Some(self.me);
        }
        self.term
    }

    /// Handles a `VoteRequest{term, last_index}` from master `from`;
    /// `my_log` is this rank's log length. Grants at most one vote per
    /// term, only to candidates whose log is at least as long as ours,
    /// and never while leading a term no older than the candidate's.
    pub fn on_vote_request(&mut self, from: usize, term: u64, their_log: u64, my_log: u64) -> bool {
        if term < self.term {
            return false;
        }
        if term > self.term {
            // A newer term always demotes: whatever we were, that
            // generation is over.
            self.term = term;
            self.role = Role::Follower;
            self.leader = None;
            self.voted_for = None;
        }
        let can_vote = match self.voted_for {
            None => true,
            Some((t, who)) => t < term || who == from,
        };
        if self.role != Role::Leader && can_vote && their_log >= my_log {
            self.voted_for = Some((term, from));
            true
        } else {
            false
        }
    }

    /// Handles a `Vote{term, granted}` from master `from`. Returns
    /// `true` when this vote completed a majority and the rank just
    /// became leader.
    pub fn on_vote(&mut self, from: usize, term: u64, granted: bool) -> bool {
        if self.role != Role::Candidate || term != self.term || !granted || from >= self.masters {
            return false;
        }
        self.votes[from] = true;
        if self.votes.iter().filter(|&&v| v).count() >= self.quorum() {
            self.role = Role::Leader;
            self.leader = Some(self.me);
            return true;
        }
        false
    }

    /// Handles a leader heartbeat (or any sealed leader frame) carrying
    /// `term` from master `from`. Returns `true` when the frame is
    /// current (the caller should reset its election deadline); a stale
    /// term is rejected.
    pub fn on_leader_heartbeat(&mut self, from: usize, term: u64) -> bool {
        if term < self.term || from == self.me {
            return term >= self.term;
        }
        if term > self.term || self.leader != Some(from) {
            self.term = term;
            self.leader = Some(from);
            self.role = Role::Follower;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d_readmit(slave: usize) -> Decision {
        Decision::Readmit { slave }
    }

    #[test]
    fn single_master_log_commits_immediately() {
        let mut log = ControlLog::new(1, 0);
        assert_eq!(log.quorum(), 1);
        log.append(1, d_readmit(0));
        log.append(1, d_readmit(1));
        assert_eq!(log.take_committed(), vec![d_readmit(0), d_readmit(1)]);
        assert_eq!(log.committed(), 2);
        assert!(log.take_committed().is_empty(), "nothing commits twice");
    }

    #[test]
    fn three_master_log_needs_one_standby_ack() {
        let mut log = ControlLog::new(3, 0);
        assert_eq!(log.quorum(), 2);
        let i0 = log.append(1, d_readmit(0));
        let i1 = log.append(1, d_readmit(1));
        assert!(log.take_committed().is_empty(), "self-ack alone is not a quorum");
        // Acking the *second* entry first must not commit it out of
        // order: commit advances over a quorum-acked prefix only.
        log.record_ack(1, i1);
        assert!(log.take_committed().is_empty(), "prefix gap blocks commit");
        log.record_ack(2, i0);
        assert_eq!(log.take_committed(), vec![d_readmit(0), d_readmit(1)]);
        // Duplicate and out-of-range acks are harmless.
        log.record_ack(2, i0);
        log.record_ack(9, i1);
        log.record_ack(1, 999);
        assert!(log.take_committed().is_empty());
    }

    #[test]
    fn replica_append_is_gap_free() {
        let mut log = ControlLog::new(3, 1);
        assert!(log.append_replica(1, 0, d_readmit(0)));
        assert!(!log.append_replica(1, 2, d_readmit(2)), "a gap is rejected");
        assert!(!log.append_replica(1, 0, d_readmit(0)), "a duplicate is rejected");
        assert!(log.append_replica(1, 1, d_readmit(1)));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn rank_zero_boots_as_leader_and_standbys_follow() {
        let e0 = Election::new(3, 0);
        assert!(e0.is_leader());
        assert_eq!(e0.term, 1);
        let e1 = Election::new(3, 1);
        assert_eq!(e1.role, Role::Follower);
        assert_eq!(e1.leader, Some(0));
        assert_eq!(e1.stagger(), 1);
        assert_eq!(Election::new(3, 2).stagger(), 2);
    }

    #[test]
    fn standby_wins_an_election_with_one_grant() {
        // Leader (rank 0) dies; rank 1 campaigns, rank 2 grants.
        let mut c = Election::new(3, 1);
        let term = c.start_candidacy();
        assert_eq!(term, 2);
        assert_eq!(c.role, Role::Candidate);

        let mut voter = Election::new(3, 2);
        assert!(voter.on_vote_request(1, term, 5, 5), "equal log grants");
        assert_eq!(voter.term, 2);
        assert_eq!(voter.role, Role::Follower);

        assert!(c.on_vote(2, term, true), "self + one grant is a majority of 3");
        assert!(c.is_leader());
        assert_eq!(c.leader, Some(1));

        // The voter accepts the new leader's beacon and tracks it.
        assert!(voter.on_leader_heartbeat(1, term));
        assert_eq!(voter.leader, Some(1));
    }

    #[test]
    fn votes_are_one_per_term_and_log_length_gated() {
        let mut v = Election::new(3, 2);
        assert!(!v.on_vote_request(1, 2, 3, 5), "shorter candidate log is refused");
        assert!(v.on_vote_request(1, 2, 5, 5));
        assert!(!v.on_vote_request(0, 2, 9, 5), "second candidate in the same term is refused");
        assert!(v.on_vote_request(1, 2, 5, 5), "re-granting the same candidate is idempotent");
        assert!(v.on_vote_request(0, 3, 9, 5), "a newer term re-opens the vote");
    }

    #[test]
    fn stale_traffic_is_rejected() {
        let mut e = Election::new(3, 1);
        e.term = 5;
        assert!(!e.on_vote_request(2, 4, 100, 0), "stale-term vote request");
        assert!(!e.on_leader_heartbeat(2, 4), "stale-term heartbeat");
        assert!(e.on_leader_heartbeat(0, 5), "current-term heartbeat accepted");
        // A vote for a term we are not campaigning in changes nothing.
        assert!(!e.on_vote(2, 5, true));
        assert_eq!(e.role, Role::Follower);
    }

    #[test]
    fn newer_term_heartbeat_retargets_the_leader() {
        let mut e = Election::new(3, 2);
        assert_eq!(e.leader, Some(0));
        assert!(e.on_leader_heartbeat(1, 3), "failover announcement");
        assert_eq!(e.leader, Some(1));
        assert_eq!(e.term, 3);
        assert!(!e.on_leader_heartbeat(0, 1), "the deposed leader is ignored");
        assert_eq!(e.leader, Some(1));
    }

    #[test]
    fn candidate_needs_a_real_majority_of_five() {
        let mut c = Election::new(5, 1);
        let term = c.start_candidacy();
        assert!(!c.on_vote(2, term, true), "2 of 5 is not a majority");
        assert!(!c.on_vote(2, term, true), "duplicate grants do not stack");
        assert!(!c.on_vote(3, term, false), "a refusal is not a grant");
        assert!(c.on_vote(4, term, true), "3 of 5 wins");
        assert!(c.is_leader());
    }
}
