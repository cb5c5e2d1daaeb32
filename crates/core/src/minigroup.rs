//! A mini-partition-group: the pair of window partitions (one per
//! stream) that a probing tuple actually scans, together with its probe
//! engine. This is the paper's unit of fine tuning — the bucket of the
//! extendible-hash directory (§IV-D, Fig. 4b).

use crate::{
    hash::tuning_hash, JoinSemantics, OutPair, ProbeEngine, Side, Tuple, WindowPartition, WorkStats,
};
use windjoin_exthash::SplitBit;

/// Shared construction parameters for mini-groups.
#[derive(Debug, Clone, Copy)]
pub struct MiniGroupCfg {
    /// Tuples per block.
    pub block_tuples: usize,
    /// Window sizes.
    pub sem: JoinSemantics,
    /// Extra retention before block expiry (see `Params::expiry_lag_us`).
    pub expiry_lag_us: u64,
}

/// Two windows + engine; all probing, sealing and expiry logic lives here.
#[derive(Debug, Clone)]
pub struct MiniGroup<E: ProbeEngine> {
    cfg: MiniGroupCfg,
    left: WindowPartition,
    right: WindowPartition,
    engine: E,
}

impl<E: ProbeEngine> MiniGroup<E> {
    /// An empty mini-group.
    pub fn new(cfg: MiniGroupCfg) -> Self {
        MiniGroup {
            cfg,
            left: WindowPartition::new(Side::Left, cfg.block_tuples),
            right: WindowPartition::new(Side::Right, cfg.block_tuples),
            engine: E::default(),
        }
    }

    /// Rebuilds a mini-group from sealed, time-ordered per-side tuples
    /// (state installation / split / merge). Charges `tuples_moved`.
    pub fn from_parts(
        cfg: MiniGroupCfg,
        left: Vec<Tuple>,
        right: Vec<Tuple>,
        work: &mut WorkStats,
    ) -> Self {
        work.tuples_moved += (left.len() + right.len()) as u64;
        let left = WindowPartition::from_tuples(Side::Left, cfg.block_tuples, left);
        let right = WindowPartition::from_tuples(Side::Right, cfg.block_tuples, right);
        MiniGroup { cfg, left, right, engine: E::default() }
    }

    fn window(&self, side: Side) -> &WindowPartition {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// Total stored tuples across both windows.
    pub fn tuple_count(&self) -> usize {
        self.left.tuple_count() + self.right.tuple_count()
    }

    /// Total blocks across both windows — the quantity the θ rule bounds.
    pub fn total_blocks(&self) -> usize {
        self.left.block_count() + self.right.block_count()
    }

    /// Pending (unprobed) tuples across both windows.
    pub fn fresh_count(&self) -> usize {
        self.left.fresh_count() + self.right.fresh_count()
    }

    /// Inserts one tuple: expires both windows up to the tuple's
    /// timestamp (block-granular, with the completeness join of §IV-D),
    /// appends it as fresh, and auto-flushes if the head block filled.
    pub fn insert(&mut self, tup: Tuple, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        self.expire_to(tup.t, out, work);
        work.inserts += 1;
        let side = tup.side;
        let filled = match side {
            Side::Left => self.left.append(tup),
            Side::Right => self.right.append(tup),
        };
        if filled {
            self.flush(side, out, work);
        }
    }

    /// Stores a tuple **without probing** (sealed immediately). Not part
    /// of the paper's protocol — used by the baseline routing strategies
    /// (ATR pre-warming and CTR storage hops), where a tuple's probe
    /// happens on a different node than its storage.
    pub fn insert_unprobed(&mut self, tup: Tuple, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        self.expire_to(tup.t, out, work);
        work.inserts += 1;
        let this = match tup.side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        this.append(tup);
        this.seal();
    }

    /// Probes a tuple against the opposite window **without storing
    /// it** (CTR probe hops: the tuple is stored elsewhere).
    pub fn probe_only(&mut self, tup: &Tuple, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        self.expire_to(tup.t, out, work);
        let MiniGroup { cfg, left, right, engine } = self;
        let opp = match tup.side {
            Side::Left => &*right,
            Side::Right => &*left,
        };
        engine.probe(std::slice::from_ref(tup), opp, &cfg.sem, out, work);
    }

    /// Probes and seals the fresh tuples of `side` (§IV-D: "the newly
    /// added tuples are joined with the mini-partitions from the
    /// opposite stream windows", skipping the opposite fresh tail).
    pub fn flush(&mut self, side: Side, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        let MiniGroup { cfg, left, right, engine } = self;
        let (this, opp) = match side {
            Side::Left => (&mut *left, &*right),
            Side::Right => (&mut *right, &*left),
        };
        if this.fresh_count() == 0 {
            return;
        }
        engine.probe(this.fresh_slice(), opp, &cfg.sem, out, work);
        this.seal();
    }

    /// Flushes both sides (end of a processing batch).
    pub fn flush_all(&mut self, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        self.flush(Side::Left, out, work);
        self.flush(Side::Right, out, work);
    }

    /// Expires fully-aged blocks of both windows. Before a block is
    /// dropped it is joined against the *fresh* tuples of the opposite
    /// head block — §IV-D's completeness rule: those fresh tuples probe
    /// later, when this block will already be gone.
    pub fn expire_to(&mut self, watermark: u64, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        let MiniGroup { cfg, left, right, engine } = self;
        for side in Side::BOTH {
            let (this, opp): (&mut WindowPartition, &WindowPartition) = match side {
                Side::Left => (&mut *left, &*right),
                Side::Right => (&mut *right, &*left),
            };
            let w_us = cfg.sem.window_us(side);
            while this.expire_front(watermark, w_us, cfg.expiry_lag_us, |block| {
                engine.join_expiring(opp.fresh_slice(), block, &cfg.sem, out, work);
            }) {
                work.blocks_touched += 1;
            }
        }
    }

    /// The earliest watermark at which [`Self::expire_to`] can drop a
    /// block: one past the oldest block's expiry instant, the sooner of
    /// the two sides (`u64::MAX` when both are empty).
    pub fn next_expiry(&self) -> u64 {
        Side::BOTH
            .iter()
            .filter_map(|&side| {
                let newest = self.window(side).oldest_block_newest_t()?;
                let w_us = self.cfg.sem.window_us(side);
                Some(newest.saturating_add(w_us).saturating_add(self.cfg.expiry_lag_us))
            })
            .min()
            .map_or(u64::MAX, |at| at.saturating_add(1))
    }

    /// Splits this mini-group in two along `bit` of the tuning hash.
    /// Tuples whose bit is set move into the returned sibling. Both
    /// sides must be flushed first (no fresh tuples).
    ///
    /// The relocation is charged to `work.tuples_moved` / `hash_ops`.
    pub fn split_by(&mut self, bit: SplitBit, work: &mut WorkStats) -> MiniGroup<E> {
        assert_eq!(self.fresh_count(), 0, "flush before splitting");
        let cfg = self.cfg;
        let left =
            std::mem::replace(&mut self.left, WindowPartition::new(Side::Left, cfg.block_tuples));
        let right =
            std::mem::replace(&mut self.right, WindowPartition::new(Side::Right, cfg.block_tuples));

        work.hash_ops += (left.tuple_count() + right.tuple_count()) as u64;
        let goes = |t: &Tuple| bit.goes_to_sibling(tuning_hash(t.key));
        let (go_left, stay_left): (Vec<Tuple>, Vec<Tuple>) = left.iter().partition(goes);
        let (go_right, stay_right): (Vec<Tuple>, Vec<Tuple>) = right.iter().partition(goes);
        *self = MiniGroup::from_parts(cfg, stay_left, stay_right, work);
        MiniGroup::from_parts(cfg, go_left, go_right, work)
    }

    /// Absorbs a buddy mini-group (merge). Both must be flushed.
    pub fn absorb(&mut self, other: MiniGroup<E>, work: &mut WorkStats) {
        assert_eq!(self.fresh_count(), 0, "flush before merging");
        assert_eq!(other.fresh_count(), 0, "flush buddy before merging");
        let cfg = self.cfg;
        let left =
            std::mem::replace(&mut self.left, WindowPartition::new(Side::Left, cfg.block_tuples));
        let right =
            std::mem::replace(&mut self.right, WindowPartition::new(Side::Right, cfg.block_tuples));
        let merged_left = merge_ordered(&left, &other.left);
        let merged_right = merge_ordered(&right, &other.right);
        *self = MiniGroup::from_parts(cfg, merged_left, merged_right, work);
    }

    /// Consumes the mini-group, yielding `(left, right)` tuples,
    /// time-ordered (state extraction for partition movement).
    pub fn into_parts(self) -> (Vec<Tuple>, Vec<Tuple>) {
        (self.left.into_tuples(), self.right.into_tuples())
    }

    /// Oldest timestamp across both windows (diagnostics).
    pub fn oldest_t(&self) -> Option<u64> {
        match (self.left.oldest_t(), self.right.oldest_t()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Read access to a side's window (tests, diagnostics).
    pub fn window_of(&self, side: Side) -> &WindowPartition {
        self.window(side)
    }

    /// Read access to the probe engine (tests, diagnostics).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Heap bytes held by both windows and the engine.
    pub fn heap_bytes(&self) -> usize {
        self.left.heap_bytes() + self.right.heap_bytes() + self.engine.heap_bytes()
    }
}

/// Merges two same-side windows into one `(t, seq)`-ordered tuple list.
fn merge_ordered(a: &WindowPartition, b: &WindowPartition) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(a.tuple_count() + b.tuple_count());
    let (mut ia, mut ib) = (a.iter().peekable(), b.iter().peekable());
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => {
                if (x.t, x.seq) <= (y.t, y.seq) {
                    out.push(ia.next().unwrap());
                } else {
                    out.push(ib.next().unwrap());
                }
            }
            (Some(_), None) => out.push(ia.next().unwrap()),
            (None, Some(_)) => out.push(ib.next().unwrap()),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ExactEngine;
    use crate::reference::ScalarEngine;

    fn cfg() -> MiniGroupCfg {
        MiniGroupCfg {
            block_tuples: 4,
            sem: JoinSemantics { w_left_us: 1_000, w_right_us: 1_000 },
            expiry_lag_us: 0,
        }
    }

    fn tl(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, t, key, seq)
    }
    fn tr(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Right, t, key, seq)
    }

    fn run<E: ProbeEngine>(tuples: &[Tuple]) -> Vec<OutPair> {
        let mut mg: MiniGroup<E> = MiniGroup::new(cfg());
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for &t in tuples {
            mg.insert(t, &mut out, &mut work);
        }
        mg.flush_all(&mut out, &mut work);
        out.sort_by_key(|p| p.id());
        out
    }

    #[test]
    fn simple_match_both_engines() {
        let tuples = [tl(100, 7, 0), tr(200, 7, 0)];
        let a = run::<ExactEngine>(&tuples);
        let b = run::<ScalarEngine>(&tuples);
        assert_eq!(a.len(), 1);
        assert_eq!(a, b);
        assert_eq!(a[0].left, (100, 0));
        assert_eq!(a[0].right, (200, 0));
    }

    #[test]
    fn no_duplicate_outputs_across_flush_patterns() {
        // Enough same-key tuples to trigger auto-flushes on head fills,
        // interleaved across sides: every pair must appear exactly once.
        let mut tuples = Vec::new();
        for i in 0..10u64 {
            tuples.push(tl(10 * i, 7, i));
            tuples.push(tr(10 * i + 5, 7, i));
        }
        let out = run::<ExactEngine>(&tuples);
        let mut ids: Vec<_> = out.iter().map(|p| p.id()).collect();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate output pairs detected");
        // All 10x10 pairs are within the window (max gap 95 <= 1000).
        assert_eq!(n, 100);
        assert_eq!(out, run::<ScalarEngine>(&tuples));
    }

    #[test]
    fn window_excludes_stale_pairs() {
        let tuples = [tl(0, 7, 0), tr(2_000, 7, 0)];
        assert!(run::<ExactEngine>(&tuples).is_empty(), "2000 - 0 > W=1000");
        let tuples = [tl(0, 7, 0), tr(1_000, 7, 0)];
        assert_eq!(run::<ExactEngine>(&tuples).len(), 1, "boundary is inclusive");
    }

    #[test]
    fn expiry_completeness_join_saves_fresh_matches() {
        // Left block [0..3] fills and seals; a fresh right tuple at 900
        // has not probed yet when a left tuple at 5000 expires the old
        // left block. The completeness join must still emit (3, 900)...
        // here W=1000 so pairs (l.t in 0..=3, r.t=900) are all valid.
        let tuples = [
            tl(0, 7, 0),
            tl(1, 7, 1),
            tl(2, 7, 2),
            tl(3, 7, 3),     // head full -> flush/seal
            tr(900, 7, 0),   // fresh (block not full, batch continues)
            tl(5_000, 8, 4), // advances watermark; left block expires
        ];
        let out = run::<ExactEngine>(&tuples);
        assert_eq!(out.len(), 4, "all four pairs must survive expiry");
        assert_eq!(out, run::<ScalarEngine>(&tuples));
    }

    #[test]
    fn block_expiring_under_a_fresh_opposite_tail_matches_the_scalar_scan() {
        // A sliding stream long enough that both rings wrap, flushed
        // only when a head block fills: left blocks keep expiring while
        // right tuples are still fresh, so the completeness join runs
        // over column runs on either side of the ring's physical end.
        fn raw<E: ProbeEngine>(tuples: &[Tuple]) -> (Vec<OutPair>, WorkStats) {
            let mut mg: MiniGroup<E> = MiniGroup::new(cfg());
            let (mut out, mut work) = (Vec::new(), WorkStats::default());
            for &t in tuples {
                mg.insert(t, &mut out, &mut work);
            }
            (out, work)
        }
        let tuples: Vec<Tuple> = (0..400u64)
            .map(|i| match i % 5 {
                0..=2 => tl(130 * i, i % 3, i),
                _ => tr(130 * i, i % 3, i),
            })
            .collect();
        let (out, work) = raw::<ExactEngine>(&tuples);
        assert_eq!((out, work), raw::<ScalarEngine>(&tuples));
        assert!(work.emitted > 100 && work.blocks_touched > 100, "{work:?}");
    }

    #[test]
    fn split_then_absorb_round_trips_both_windows() {
        let mut mg: MiniGroup<ExactEngine> = MiniGroup::new(cfg());
        let (mut out, mut work) = (Vec::new(), WorkStats::default());
        for i in 0..300u64 {
            let t = if i % 2 == 0 { tl(10 * i, i / 2, i) } else { tr(10 * i, i / 2, i) };
            mg.insert(t, &mut out, &mut work); // 1 000 µs windows: both rings have wrapped
        }
        mg.flush_all(&mut out, &mut work);
        let stored = |mg: &MiniGroup<ExactEngine>| {
            Side::BOTH.map(|side| mg.window_of(side).iter().collect::<Vec<Tuple>>())
        };
        let before = stored(&mg);
        assert!(before.iter().all(|side| (40..60).contains(&side.len())), "a sliding window");
        let bit = split_bit_of(0);
        let sibling = mg.split_by(bit, &mut work);
        for side in stored(&sibling) {
            assert!(
                !side.is_empty() && side.iter().all(|t| bit.goes_to_sibling(tuning_hash(t.key)))
            );
        }
        for side in stored(&mg) {
            assert!(
                !side.is_empty() && side.iter().all(|t| !bit.goes_to_sibling(tuning_hash(t.key)))
            );
        }
        mg.absorb(sibling, &mut work);
        assert_eq!(stored(&mg), before, "every tuple back, in (t, seq) order");
        let (left, right) = mg.into_parts();
        assert_eq!([left, right], before);
    }

    #[test]
    fn split_partitions_tuples_by_hash_bit() {
        let mut mg: MiniGroup<ExactEngine> = MiniGroup::new(cfg());
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for i in 0..40u64 {
            mg.insert(tl(i, i, i), &mut out, &mut work);
        }
        mg.flush_all(&mut out, &mut work);
        let before = mg.tuple_count();
        let bit = split_bit_of(0);
        let sibling = mg.split_by(bit, &mut work);
        assert_eq!(mg.tuple_count() + sibling.tuple_count(), before);
        assert!(work.tuples_moved >= before as u64);
        // Every tuple is on the correct half.
        let (l, _) = sibling.into_parts();
        for t in l {
            assert!(bit.goes_to_sibling(tuning_hash(t.key)));
        }
    }

    /// Builds a `SplitBit` through a directory split (the only public
    /// constructor path).
    fn split_bit_of(expected: u8) -> SplitBit {
        let mut d: windjoin_exthash::Directory<Vec<u64>> =
            windjoin_exthash::Directory::new(4, Vec::new());
        let bit = d.split(0, |_, b| {
            assert_eq!(b.bit_index(), expected);
            Vec::new()
        });
        bit.unwrap()
    }

    #[test]
    fn absorb_restores_all_tuples_in_order() {
        let mut work = WorkStats::default();
        let a_tuples: Vec<Tuple> = (0..10).map(|i| tl(2 * i, i, 2 * i)).collect();
        let b_tuples: Vec<Tuple> = (0..10).map(|i| tl(2 * i + 1, i, 2 * i + 1)).collect();
        let mut a: MiniGroup<ExactEngine> =
            MiniGroup::from_parts(cfg(), a_tuples, Vec::new(), &mut work);
        let b: MiniGroup<ExactEngine> =
            MiniGroup::from_parts(cfg(), b_tuples, Vec::new(), &mut work);
        a.absorb(b, &mut work);
        assert_eq!(a.tuple_count(), 20);
        let (l, r) = a.into_parts();
        assert!(r.is_empty());
        for w in l.windows(2) {
            assert!((w[0].t, w[0].seq) < (w[1].t, w[1].seq), "merge must stay ordered");
        }
    }

    #[test]
    fn late_probes_after_expiry_match_the_scalar_scan() {
        // Insert enough that old blocks expire, then verify late probes
        // still agree with the reference kernel.
        let mut tuples = Vec::new();
        for i in 0..200u64 {
            tuples.push(tl(i * 20, i % 5, i));
            tuples.push(tr(i * 20 + 7, i % 5, i));
        }
        assert_eq!(run::<ExactEngine>(&tuples), run::<ScalarEngine>(&tuples));
    }
}
