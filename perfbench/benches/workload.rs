//! The benchmark's workloads: each is a set of (app, mode, config)
//! cells, spelled three ways — as a `SystemConfig` for the in-process
//! runs, as `barre` command-line flags, and as `barre serve` request
//! fields — so every path simulates exactly the same cells.

use barre_system::{smoke_config, FBarreConfig, SystemConfig, TranslationMode};
use barre_workloads::AppId;

/// The three translation modes every workload runs, by their CLI names.
pub const MODES: [&str; 3] = ["baseline", "barre", "fbarre"];

pub fn mode(name: &str) -> TranslationMode {
    match name {
        "baseline" => TranslationMode::Baseline,
        "barre" => TranslationMode::Barre,
        _ => TranslationMode::FBarre(FBarreConfig::default()),
    }
}

/// Base configuration of a workload's cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// `--smoke`: 4 chiplets × 2 CUs, 120 warps per CTA.
    Smoke,
    /// The default (scaled Table II) configuration.
    Scaled,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub apps: &'static [AppId],
    pub scale: Scale,
    pub migration: bool,
    /// App of the F-Barre cell sent to `barre serve` and exported by
    /// `barre trace` for `barre report`.
    pub probe_app: AppId,
}

/// Span-ring window of the exported trace. `barre report` is quadratic
/// in the Chrome export's size; 2,048 spans (~0.19 MB) keep today's
/// report near 0.3 s.
pub const TRACE_WINDOW: usize = 2048;

/// Repeated (cache-hit) serve requests per round.
pub const CACHED_REQUESTS: usize = 8;

/// One simulation: an app under one mode of a workload's configuration.
#[derive(Debug, Clone)]
pub struct Cell {
    pub app: AppId,
    pub mode: &'static str,
    pub cfg: SystemConfig,
}

impl Cell {
    /// The label `barre sweep` journals the same simulation under.
    pub fn label(&self) -> String {
        format!("{}/{}", self.app, self.cfg.mode.label())
    }
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "translate-heavy",
            apps: &[AppId::Gups, AppId::Spmv],
            scale: Scale::Smoke,
            migration: false,
            probe_app: AppId::Gups,
        },
        Workload {
            name: "translate-light",
            apps: &[AppId::St2d, AppId::Jac2d, AppId::Fft, AppId::Gemv],
            scale: Scale::Scaled,
            migration: false,
            probe_app: AppId::St2d,
        },
        Workload {
            name: "remap",
            apps: &[AppId::Gups, AppId::Pr],
            scale: Scale::Smoke,
            migration: true,
            probe_app: AppId::Gups,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn config(&self, mode_name: &str) -> SystemConfig {
        let mut cfg = match self.scale {
            Scale::Smoke => smoke_config(),
            Scale::Scaled => SystemConfig::scaled(),
        }
        .with_mode(mode(mode_name));
        if self.migration {
            cfg.migration = Some(Default::default());
        }
        cfg
    }

    /// Every cell, app-major (baseline, barre, fbarre per app).
    pub fn cells(&self) -> Vec<Cell> {
        self.apps
            .iter()
            .flat_map(|&app| {
                MODES.iter().map(move |&m| Cell {
                    app,
                    mode: m,
                    cfg: self.config(m),
                })
            })
            .collect()
    }

    /// Configuration flags for `barre run|trace|sweep` (`--smoke` must
    /// precede `--migration`: `--smoke` replaces the whole config).
    pub fn cli_flags(&self) -> Vec<String> {
        let mut f = Vec::new();
        if self.scale == Scale::Smoke {
            f.push("--smoke".to_string());
        }
        if self.migration {
            f.push("--migration".to_string());
        }
        f
    }

    /// The serve request for `app` under `mode_name` (no `id`, so cold
    /// and cached responses must be byte-identical).
    pub fn serve_request(&self, app: AppId, mode_name: &str, seed: u64) -> String {
        let mut r = format!("{{\"app\":\"{app}\",\"mode\":\"{mode_name}\",\"seed\":{seed}");
        if self.scale == Scale::Smoke {
            r.push_str(",\"smoke\":true");
        }
        if self.migration {
            r.push_str(",\"migration\":true");
        }
        r.push('}');
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_every_app_and_mode() {
        for w in all() {
            let cells = w.cells();
            assert_eq!(cells.len(), w.apps.len() * MODES.len());
            assert!(w.apps.contains(&w.probe_app));
            assert_eq!(cells[0].cfg.migration.is_some(), w.migration);
        }
        assert!(by_name("remap").is_some() && by_name("nope").is_none());
    }

    #[test]
    fn serve_request_spells_the_config() {
        let w = by_name("remap").unwrap();
        assert_eq!(
            w.serve_request(AppId::Gups, "fbarre", 3),
            r#"{"app":"gups","mode":"fbarre","seed":3,"smoke":true,"migration":true}"#
        );
        assert_eq!(w.cli_flags(), ["--smoke", "--migration"]);
    }
}
