//! Run parameters, defaulting to Table I of the paper.

/// Sliding-window sizes for the two streams, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSemantics {
    /// `W1`: window on stream `S1` (left).
    pub w_left_us: u64,
    /// `W2`: window on stream `S2` (right).
    pub w_right_us: u64,
}

impl JoinSemantics {
    /// Window of the given side.
    #[inline]
    pub fn window_us(&self, side: crate::Side) -> u64 {
        match side {
            crate::Side::Left => self.w_left_us,
            crate::Side::Right => self.w_right_us,
        }
    }

    /// The §II join predicate: a pair `(x from S1, y from S2)` is a
    /// result iff the *later* tuple arrived while the *earlier* one was
    /// still inside the earlier tuple's own window — i.e.
    /// `later.t - earlier.t <= W(earlier side)`.
    ///
    /// Written from the probing tuple's perspective; the stored tuple is
    /// on `probe_side.opposite()`. The stored tuple is usually older, but
    /// may be newer when the opposite head block flushed (sealed) before
    /// this probe — both directions are handled.
    #[inline]
    pub fn joins(&self, probe_t: u64, probe_side: crate::Side, stored_t: u64) -> bool {
        if probe_t >= stored_t {
            probe_t - stored_t <= self.window_us(probe_side.opposite())
        } else {
            stored_t - probe_t <= self.window_us(probe_side)
        }
    }
}

/// Fine-grained partition tuning parameters (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningParams {
    /// θ in **blocks**: mini-partition-group sizes are kept in `[θ, 2θ]`.
    pub theta_blocks: usize,
    /// Maximum extendible-hash directory depth per partition-group
    /// (bounds splitting under pathological key skew; a bucket at this
    /// depth is allowed to exceed `2θ`).
    pub max_depth: u8,
}

/// All run parameters. [`Params::default_paper`] reproduces Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Window sizes (Table I: `Wi = 10 min`).
    pub sem: JoinSemantics,
    /// Number of stream partitions at the master (§VI-A: 60).
    pub npart: u32,
    /// Wire size of one tuple in bytes (Table I: 64).
    pub tuple_bytes: usize,
    /// Block size in bytes (Table I: 4 KB).
    pub block_bytes: usize,
    /// Fine tuning; `None` disables it (the paper's "no fine-tuning"
    /// configuration in Figs. 7–9).
    pub tuning: Option<TuningParams>,
    /// Distribution epoch `t_d`, microseconds (Table I: 2 s). Every
    /// slave gets one batch per epoch at its sub-group's slot. The
    /// simulator distributes only then, as the paper does, so a tuple
    /// waits `t_d / 2` at the master on average. The real runtimes'
    /// leader also ships each slave that has acknowledged its last
    /// batch on a `t_d / 25` tick grid ([`crate::MasterCore::drain_for_idle`]);
    /// there `t_d` is the longest a tuple waits at the master.
    pub dist_epoch_us: u64,
    /// Reorganization epoch `t_r`, microseconds (Table I: 20 s; the text
    /// of §VI-A mentions 4 s once — we follow the table).
    pub reorg_epoch_us: u64,
    /// Memory allotted to a slave's stream buffer (§VI-A: 1 MB); the
    /// denominator of the average-buffer-occupancy metric `f_i`.
    pub slave_buffer_bytes: usize,
    /// Consumer threshold `Th_con` (Table I: 0.01).
    pub th_con: f64,
    /// Supplier threshold `Th_sup` (Table I: 0.5).
    pub th_sup: f64,
    /// Granularity parameter β of the degree-of-declustering rule
    /// (§V-A: `0 < β < 1`; the paper gives no default — we use 0.5).
    pub beta: f64,
    /// Number of sub-groups `n_g` for slot-sliced communication (§V-B).
    /// 1 means every slave exchanges with the master in the same slot.
    pub ng: u32,
    /// Extra retention beyond the window before a block may expire.
    /// Slaves process partitions sequentially within a batch, so the
    /// watermark can lead the oldest unprocessed tuple by up to one
    /// batch span; retaining `expiry_lag_us` longer keeps every possible
    /// match available. Join outputs are exact regardless (the predicate
    /// filters); this only affects *when* state is reclaimed. Default:
    /// `2 × dist_epoch_us`.
    pub expiry_lag_us: u64,
}

impl Params {
    /// Table I defaults.
    pub fn default_paper() -> Self {
        let dist_epoch_us = 2_000_000;
        Params {
            sem: JoinSemantics { w_left_us: 600_000_000, w_right_us: 600_000_000 },
            npart: 60,
            tuple_bytes: 64,
            block_bytes: 4096,
            tuning: Some(TuningParams {
                // θ = 1.5 MB of 4 KB blocks.
                theta_blocks: (1.5 * 1024.0 * 1024.0 / 4096.0) as usize,
                max_depth: 12,
            }),
            dist_epoch_us,
            reorg_epoch_us: 20_000_000,
            slave_buffer_bytes: 1024 * 1024,
            th_con: 0.01,
            th_sup: 0.5,
            beta: 0.5,
            ng: 1,
            expiry_lag_us: 2 * dist_epoch_us,
        }
    }

    /// Tuples per block (`block_bytes / tuple_bytes`).
    #[inline]
    pub fn block_tuples(&self) -> usize {
        self.block_bytes / self.tuple_bytes
    }

    /// Disables fine tuning (paper's ablation in Figs. 7–9).
    pub fn without_tuning(mut self) -> Self {
        self.tuning = None;
        self
    }

    /// Sets both windows to `secs` seconds.
    pub fn with_window_secs(mut self, secs: u64) -> Self {
        self.sem.w_left_us = secs * 1_000_000;
        self.sem.w_right_us = secs * 1_000_000;
        self
    }

    /// Sets the distribution epoch (and the default expiry lag with it).
    pub fn with_dist_epoch_us(mut self, us: u64) -> Self {
        self.dist_epoch_us = us;
        self.expiry_lag_us = 2 * us;
        self
    }

    /// A no-op: a slave drains its partition-groups serially. Its only
    /// caller is the end-to-end benchmark's adapter
    /// (`benchmark/src/sut.rs`, which asks for width 1), and that
    /// package changes only on its own; the next benchmark change
    /// deletes the call and this shim together.
    #[doc(hidden)]
    pub fn with_probe_threads(self, threads: usize) -> Self {
        debug_assert_eq!(threads, 1, "a slave drains serially");
        self
    }

    /// Validates internal consistency; call after manual field edits.
    pub fn validate(&self) -> Result<(), crate::ConfigError> {
        use crate::ConfigError;
        if self.npart == 0 {
            return Err(ConfigError::NonPositive { field: "params.npart" });
        }
        if self.tuple_bytes == 0 || self.block_bytes < self.tuple_bytes {
            return Err(ConfigError::OutOfRange {
                field: "params.block_bytes",
                constraint: "block must hold at least one tuple",
            });
        }
        if self.dist_epoch_us == 0 || self.reorg_epoch_us < self.dist_epoch_us {
            return Err(ConfigError::OutOfRange {
                field: "params.reorg_epoch_us",
                constraint: "0 < dist_epoch_us <= reorg_epoch_us",
            });
        }
        if !(0.0..=1.0).contains(&self.th_con)
            || !(0.0..=1.0).contains(&self.th_sup)
            || self.th_con >= self.th_sup
        {
            return Err(ConfigError::OutOfRange {
                field: "params.th_con",
                constraint: "0 <= Th_con < Th_sup <= 1",
            });
        }
        if !(0.0..1.0).contains(&self.beta) || self.beta <= 0.0 {
            return Err(ConfigError::OutOfRange {
                field: "params.beta",
                constraint: "0 < beta < 1",
            });
        }
        if self.ng == 0 {
            return Err(ConfigError::NonPositive { field: "params.ng" });
        }
        if let Some(t) = &self.tuning {
            if t.theta_blocks == 0 {
                return Err(ConfigError::NonPositive { field: "params.tuning.theta_blocks" });
            }
        }
        Ok(())
    }
}

impl Default for Params {
    fn default() -> Self {
        Self::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;

    #[test]
    fn table1_defaults_match_paper() {
        let p = Params::default_paper();
        assert_eq!(p.sem.w_left_us, 600_000_000, "W1 = 10 min");
        assert_eq!(p.sem.w_right_us, 600_000_000, "W2 = 10 min");
        assert_eq!(p.th_con, 0.01, "Th_con");
        assert_eq!(p.th_sup, 0.5, "Th_sup");
        assert_eq!(p.tuning.unwrap().theta_blocks, 384, "θ = 1.5 MB of 4 KB blocks");
        assert_eq!(p.block_bytes, 4096, "block = 4 KB");
        assert_eq!(p.dist_epoch_us, 2_000_000, "t_d = 2 s");
        assert_eq!(p.reorg_epoch_us, 20_000_000, "t_r = 20 s");
        assert_eq!(p.npart, 60, "60 partitions");
        assert_eq!(p.tuple_bytes, 64, "64-byte tuples");
        assert_eq!(p.slave_buffer_bytes, 1 << 20, "1 MB buffer");
        assert_eq!(p.block_tuples(), 64);
        p.validate().unwrap();
    }

    #[test]
    fn join_predicate_uses_earlier_side_window() {
        let sem = JoinSemantics { w_left_us: 100, w_right_us: 50 };
        // Right-side probe against stored-left tuples: within W1=100.
        assert!(sem.joins(150, Side::Right, 50));
        assert!(!sem.joins(151, Side::Right, 50));
        // Left-side probe against stored-right tuples: within W2=50.
        assert!(sem.joins(100, Side::Left, 50));
        assert!(!sem.joins(101, Side::Left, 50));
        // Stored tuple newer than the probe: the probe is the earlier
        // tuple, so its own window applies (left probe -> W1=100).
        assert!(sem.joins(10, Side::Left, 110));
        assert!(!sem.joins(10, Side::Left, 111));
        assert!(sem.joins(10, Side::Right, 60));
        assert!(!sem.joins(10, Side::Right, 61));
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = Params::default_paper();
        p.th_con = 0.9;
        assert!(p.validate().is_err());

        let mut p = Params::default_paper();
        p.block_bytes = 10;
        assert!(p.validate().is_err());

        let mut p = Params::default_paper();
        p.reorg_epoch_us = 1;
        assert!(p.validate().is_err());

        let mut p = Params::default_paper();
        p.beta = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn builders_adjust_consistently() {
        let p = Params::default_paper().with_window_secs(30).with_dist_epoch_us(500_000);
        assert_eq!(p.sem.w_left_us, 30_000_000);
        assert_eq!(p.dist_epoch_us, 500_000);
        assert_eq!(p.expiry_lag_us, 1_000_000);
        assert!(p.validate().is_ok());
        let q = p.without_tuning();
        assert!(q.tuning.is_none());
    }
}
