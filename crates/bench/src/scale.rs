//! Experiment scale control.

use std::time::Duration;
use windjoin_cluster::NodeConfig;

/// How long each simulated run lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's methodology: 20 simulated minutes, statistics over
    /// the last 10 (§VI-A). Figure-faithful; a full `--all` sweep takes
    /// tens of minutes of wall clock.
    Full,
    /// 8 simulated minutes, statistics over the last 4, with windows
    /// kept at Table I's 10 minutes. Windows are therefore only
    /// partially filled: knees shift right slightly and absolute CPU
    /// numbers shrink, but orderings and crossovers survive. For CI and
    /// iteration.
    Quick,
    /// Seconds-scale smoke runs for unit tests of the harness itself.
    Smoke,
}

impl Scale {
    /// Applies the scale to a paper-default config.
    pub fn apply(self, mut cfg: NodeConfig) -> NodeConfig {
        match self {
            Scale::Full => {}
            Scale::Quick => {
                cfg.run = Duration::from_secs(8 * 60);
                cfg.warmup = Duration::from_secs(4 * 60);
            }
            Scale::Smoke => {
                cfg.run = Duration::from_secs(30);
                cfg.warmup = Duration::from_secs(10);
                cfg.params = cfg.params.with_window_secs(10);
            }
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use windjoin_cluster::Runtime;

    #[test]
    fn scales_shorten_the_horizon_and_keep_the_config_valid() {
        let quick = Scale::Quick.apply(NodeConfig::paper_default(2));
        assert_eq!((quick.run.as_secs(), quick.warmup.as_secs()), (480, 240));
        assert_eq!(quick.params.sem.w_left_us, 600_000_000, "Table I windows kept");
        let smoke = Scale::Smoke.apply(NodeConfig::paper_default(2));
        assert_eq!((smoke.run.as_secs(), smoke.warmup.as_secs()), (30, 10));
        assert_eq!(smoke.params.sem.w_left_us, 10_000_000);
        for cfg in [quick, smoke] {
            cfg.validate(Runtime::Sim).unwrap();
        }
    }
}
