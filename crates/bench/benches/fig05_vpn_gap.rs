//! Fig 5 — VPN-gap distribution of consecutive IOMMU requests.
//!
//! Compares private L2 TLBs against the hypothetical shared L2 TLB.
//! Paper shape: private TLBs produce more and more-irregular spikes
//! (scattered requests), making prefetch prediction hopeless.

use barre_bench::{banner, SEED};
use barre_system::{run_app, SystemConfig, TranslationMode};
use barre_workloads::AppId;

fn main() {
    banner(
        "Fig 5",
        "power-of-two histogram of |VPN_i − VPN_(i−1)| at the IOMMU",
        "Fig 5 (§III-C)",
    );
    for app in [AppId::Jac2d, AppId::Atax, AppId::Gups] {
        for (label, cfg) in [
            ("private L2 TLBs", SystemConfig::scaled()),
            (
                "shared L2 TLB",
                SystemConfig::scaled().with_mode(TranslationMode::SharedL2Ideal),
            ),
        ] {
            let m = run_app(app, &cfg, SEED).expect("Fig 5 run failed");
            println!("\n{} / {label}: {}", app.name(), m.vpn_gap);
            // Each bucket is labelled with its lower bound `lo` and
            // holds gaps in [lo, 2*lo); the `1` bucket also holds 0.
            print!("  gap>=: ");
            for (bound, count) in m.vpn_gap.buckets() {
                print!("{bound}:{count} ");
            }
            println!();
            println!(
                "  fraction of gaps < 16 pages: {:.1}%  (higher = more predictable)",
                m.vpn_gap.fraction_le(8) * 100.0
            );
        }
    }
}
