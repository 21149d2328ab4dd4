//! The roster of evaluated systems (paper §IV-D) as a buildable enum.

use domino::{Domino, DominoConfig, NaiveDomino};
use domino_mem::interface::{NoPrefetcher, Prefetcher};
use domino_prefetchers::{
    Digram, Ghb, GhbConfig, Isb, Markov, MarkovConfig, MultiDepthPrefetcher, NextLine, Pangloss,
    PanglossConfig, Sms, SmsConfig, SpatioTemporal, Stms, StridePrefetcher, TemporalConfig,
    Triangel, TriangelConfig, Vldp, VldpConfig,
};

/// Identifies one of the evaluated prefetching systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// No data prefetcher (the paper's baseline).
    Baseline,
    /// Next-line prefetching.
    NextLine,
    /// PC-stride prefetching.
    Stride,
    /// Global History Buffer (on-chip temporal, paper ref \[11\]).
    Ghb,
    /// First-order Markov prefetcher (paper ref \[8\]).
    Markov,
    /// Spatial Memory Streaming (footprints, paper ref \[33\]).
    Sms,
    /// Variable Length Delta Prefetcher.
    Vldp,
    /// Irregular Stream Buffer (idealized PC/AC).
    Isb,
    /// Sampled Temporal Memory Streaming.
    Stms,
    /// Two-address-lookup STMS variant.
    Digram,
    /// The Domino prefetcher (practical EIT design).
    Domino,
    /// The strawman two-index-table Domino.
    DominoNaive,
    /// Recursive multi-depth lookup with the given maximum depth
    /// (Figure 5).
    MultiDepth(usize),
    /// VLDP with Domino stacked on top (Figure 16).
    VldpPlusDomino,
    /// Pangloss (DPC-3 2019): on-chip compressed Markov chain.
    Pangloss,
    /// Triangel (ISCA 2024): sampler-filtered on-chip temporal.
    Triangel,
}

impl System {
    /// Every buildable system, one entry per enum variant (the
    /// parameterised lookup-depth variant appears at the paper's default
    /// depth of 3). Roster-driven tests and the differential checker
    /// iterate this list so a newly added prefetcher cannot be forgotten.
    pub fn all() -> Vec<System> {
        vec![
            System::Baseline,
            System::NextLine,
            System::Stride,
            System::Ghb,
            System::Markov,
            System::Sms,
            System::Vldp,
            System::Isb,
            System::Stms,
            System::Digram,
            System::Domino,
            System::DominoNaive,
            System::MultiDepth(3),
            System::VldpPlusDomino,
            System::Pangloss,
            System::Triangel,
        ]
    }

    /// Inverse of [`System::label`]: resolves a figure label back to the
    /// system, so reproducer files can name the system they were shrunk
    /// under. Matching ignores ASCII case (`domino` and `Domino` both
    /// resolve) so CLI flags stay forgiving. Returns `None` for unknown
    /// labels.
    pub fn from_label(label: &str) -> Option<System> {
        if let Some(depth) = strip_prefix_ignore_case(label, "Lookup-") {
            return depth.parse().ok().map(System::MultiDepth);
        }
        System::all()
            .into_iter()
            .find(|sys| sys.label().eq_ignore_ascii_case(label))
    }

    /// The systems compared in Figures 11, 13 and 14.
    pub fn paper_roster() -> [System; 5] {
        [
            System::Vldp,
            System::Isb,
            System::Stms,
            System::Digram,
            System::Domino,
        ]
    }

    /// Display name matching the paper's figure labels.
    pub fn label(&self) -> String {
        match self {
            System::Baseline => "Baseline".into(),
            System::NextLine => "NextLine".into(),
            System::Stride => "Stride".into(),
            System::Ghb => "GHB".into(),
            System::Markov => "Markov".into(),
            System::Sms => "SMS".into(),
            System::Vldp => "VLDP".into(),
            System::Isb => "ISB".into(),
            System::Stms => "STMS".into(),
            System::Digram => "Digram".into(),
            System::Domino => "Domino".into(),
            System::DominoNaive => "Domino-Naive".into(),
            System::MultiDepth(n) => format!("Lookup-{n}"),
            System::VldpPlusDomino => "VLDP+Domino".into(),
            System::Pangloss => "Pangloss".into(),
            System::Triangel => "Triangel".into(),
        }
    }

    /// Builds the prefetcher at the given degree with paper parameters.
    pub fn build(&self, degree: usize) -> Box<dyn Prefetcher> {
        let temporal = TemporalConfig::default().with_degree(degree);
        let domino_cfg = DominoConfig::default().with_degree(degree);
        match self {
            System::Baseline => Box::new(NoPrefetcher),
            System::NextLine => Box::new(NextLine::new(degree)),
            System::Stride => Box::new(StridePrefetcher::new(degree, 256)),
            System::Ghb => Box::new(Ghb::new(GhbConfig {
                degree,
                ..GhbConfig::default()
            })),
            System::Markov => Box::new(Markov::new(MarkovConfig {
                width: degree.min(4),
                ..MarkovConfig::default()
            })),
            System::Sms => Box::new(Sms::new(SmsConfig::default())),
            System::Vldp => Box::new(Vldp::new(VldpConfig {
                degree,
                ..VldpConfig::default()
            })),
            System::Isb => Box::new(Isb::new(degree)),
            System::Stms => Box::new(Stms::new(temporal)),
            System::Digram => Box::new(Digram::new(temporal)),
            System::Domino => Box::new(Domino::new(domino_cfg)),
            System::DominoNaive => Box::new(NaiveDomino::new(domino_cfg)),
            System::MultiDepth(n) => Box::new(MultiDepthPrefetcher::new(*n, degree)),
            System::VldpPlusDomino => Box::new(SpatioTemporal::new(
                Vldp::new(VldpConfig {
                    degree,
                    ..VldpConfig::default()
                }),
                Domino::new(domino_cfg),
            )),
            System::Pangloss => Box::new(Pangloss::new(
                PanglossConfig::default()
                    .with_degree(degree.min(domino_prefetchers::pangloss::MAX_DEGREE)),
            )),
            System::Triangel => Box::new(Triangel::new(
                TriangelConfig::default()
                    .with_degree(degree.min(domino_prefetchers::triangel::MAX_DEGREE)),
            )),
        }
    }
}

/// `label.strip_prefix(prefix)` ignoring ASCII case on the prefix part.
fn strip_prefix_ignore_case<'a>(label: &'a str, prefix: &str) -> Option<&'a str> {
    let head = label.get(..prefix.len())?;
    head.eq_ignore_ascii_case(prefix)
        .then(|| &label[prefix.len()..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_mem::interface::CollectSink;
    use domino_mem::interface::TriggerEvent;
    use domino_trace::addr::{LineAddr, Pc};

    #[test]
    fn every_system_builds_and_runs() {
        for sys in System::all() {
            let mut p = sys.build(4);
            let mut sink = CollectSink::new();
            for l in 0..50u64 {
                p.on_trigger(&TriggerEvent::miss(Pc::new(1), LineAddr::new(l)), &mut sink);
            }
            assert!(!p.name().is_empty());
            assert!(!sys.label().is_empty());
        }
    }

    #[test]
    fn labels_roundtrip_through_from_label() {
        for sys in System::all() {
            assert_eq!(System::from_label(&sys.label()), Some(sys));
        }
        assert_eq!(System::from_label("Lookup-7"), Some(System::MultiDepth(7)));
        assert_eq!(System::from_label("NoSuchSystem"), None);
        // CLI flags resolve labels case-insensitively.
        assert_eq!(System::from_label("domino"), Some(System::Domino));
        assert_eq!(System::from_label("stms"), Some(System::Stms));
        assert_eq!(System::from_label("lookup-5"), Some(System::MultiDepth(5)));
    }

    #[test]
    fn roster_matches_paper_order() {
        let labels: Vec<String> = System::paper_roster().iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["VLDP", "ISB", "STMS", "Digram", "Domino"]);
    }
}
