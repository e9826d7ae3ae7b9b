//! Request validation: one JSONL line in, one canonical job out.
//!
//! A request is a single JSON object. Recognized fields (all optional
//! except `app`):
//!
//! | field        | type          | meaning                                     |
//! |--------------|---------------|---------------------------------------------|
//! | `id`         | string ≤128   | opaque client tag, echoed in the response   |
//! | `app`        | string        | workload abbreviation (`barre list`)        |
//! | `mode`       | string        | translation mode label                      |
//! | `policy`     | string        | mapping policy label                        |
//! | `page_size`  | string        | `4k` / `64k` / `2m`                         |
//! | `ptws`       | int or `"inf"`| page-table walkers per chiplet              |
//! | `chiplets`   | int 1..=64    | chiplet count                               |
//! | `seed`       | int (u64)     | simulation seed                             |
//! | `smoke`      | bool          | small fast configuration                    |
//! | `paper`      | bool          | paper-scale configuration                   |
//! | `gmmu`       | bool          | IOMMU → GMMU                                |
//! | `migration`  | bool          | enable page migration                       |
//! | `frames`     | int ≥1        | physical frames per chiplet (capacity cap)  |
//! | `timeout_ms` | int           | per-request deadline override               |
//!
//! Unknown fields are rejected — a typo must fail loudly, not silently
//! run the wrong simulation.
//!
//! Validation resolves aliases (`fbarre2` → `fbarre`, `round-robin` →
//! `rr`, `4kb` → `4k`) and renders the request as a **canonical argv**
//! in a fixed flag order; the journal [`fingerprint`] of that argv is
//! the request's content address, so equal simulations collide in the
//! result cache no matter how the client spelled them. `id` and
//! `timeout_ms` are deliberately excluded from the argv: they change
//! how a request is handled, never what it computes.

use barre_system::{fingerprint, FBarreConfig, TranslationMode};
use barre_trace::json::{quote, Json};
use barre_workloads::AppId;

/// Resolves an application by its Table I abbreviation.
pub fn app_by_name(name: &str) -> Option<AppId> {
    AppId::all().into_iter().find(|a| a.name() == name)
}

/// Resolves a translation mode label.
pub fn mode_by_name(name: &str) -> Option<TranslationMode> {
    Some(match name {
        "baseline" => TranslationMode::Baseline,
        "valkyrie" => TranslationMode::Valkyrie,
        "least" => TranslationMode::Least,
        "shared-l2" => TranslationMode::SharedL2Ideal,
        "barre" => TranslationMode::Barre,
        "fbarre" | "fbarre2" => TranslationMode::FBarre(FBarreConfig::default()),
        "fbarre1" | "fbarre-nomerge" => TranslationMode::FBarre(FBarreConfig {
            max_merged: 1,
            ..FBarreConfig::default()
        }),
        "fbarre4" => TranslationMode::FBarre(FBarreConfig {
            max_merged: 4,
            ..FBarreConfig::default()
        }),
        _ => return None,
    })
}

/// Resolves a mapping policy label.
pub fn policy_by_name(name: &str) -> Option<barre_mapping::PolicyKind> {
    Some(match name {
        "lasp" => barre_mapping::PolicyKind::Lasp,
        "coda" => barre_mapping::PolicyKind::Coda,
        "rr" | "round-robin" => barre_mapping::PolicyKind::RoundRobin,
        "chunking" => barre_mapping::PolicyKind::Chunking,
        _ => return None,
    })
}

/// Resolves a page-size label.
pub fn page_size_by_name(name: &str) -> Option<barre_mem::PageSize> {
    Some(match name {
        "4k" | "4kb" => barre_mem::PageSize::Size4K,
        "64k" | "64kb" => barre_mem::PageSize::Size64K,
        "2m" | "2mb" => barre_mem::PageSize::Size2M,
        _ => return None,
    })
}

/// Canonical spelling of a mode label (aliases collapse so equal
/// simulations get equal fingerprints).
fn canonical_mode(name: &str) -> Option<&'static str> {
    Some(match name {
        "baseline" => "baseline",
        "valkyrie" => "valkyrie",
        "least" => "least",
        "shared-l2" => "shared-l2",
        "barre" => "barre",
        "fbarre" | "fbarre2" => "fbarre",
        "fbarre1" | "fbarre-nomerge" => "fbarre1",
        "fbarre4" => "fbarre4",
        _ => return None,
    })
}

/// Canonical spelling of a policy label.
fn canonical_policy(name: &str) -> Option<&'static str> {
    Some(match name {
        "lasp" => "lasp",
        "coda" => "coda",
        "rr" | "round-robin" => "rr",
        "chunking" => "chunking",
        _ => return None,
    })
}

/// Canonical spelling of a page-size label.
fn canonical_page_size(name: &str) -> Option<&'static str> {
    Some(match name {
        "4k" | "4kb" => "4k",
        "64k" | "64kb" => "64k",
        "2m" | "2mb" => "2m",
        _ => return None,
    })
}

/// A validated request, ready to enqueue: the canonical child argv
/// (starting with `run`), its fingerprint (the cache key), and the
/// handling-only fields that stay out of the fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidRequest {
    /// Client-supplied tag, echoed in every response to this request.
    pub id: Option<String>,
    /// Human label (`"gups/barre"`; `"gups/default"` without a mode).
    pub label: String,
    /// Canonical argv the child is spawned with (after the binary name).
    pub child_args: Vec<String>,
    /// Journal fingerprint of `child_args` — the content address.
    pub fingerprint: String,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

struct Fields {
    id: Option<String>,
    app: Option<String>,
    mode: Option<String>,
    policy: Option<String>,
    page_size: Option<String>,
    ptws: Option<String>,
    chiplets: Option<u64>,
    seed: Option<u64>,
    frames: Option<u64>,
    timeout_ms: Option<u64>,
    smoke: bool,
    paper: bool,
    gmmu: bool,
    migration: bool,
}

fn want_str(key: &str, v: &Json) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key} must be a string"))
}

fn want_u64(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("field {key} must be a non-negative integer"))
}

fn want_bool(key: &str, v: &Json) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("field {key} must be a boolean")),
    }
}

/// Parses and validates one request line into a canonical job.
///
/// # Errors
///
/// A human-readable description of the first problem (returned to the
/// client in a `400`-style response).
pub fn parse_request(line: &str) -> Result<ValidRequest, String> {
    let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let pairs = v.as_obj().ok_or("request must be a JSON object")?;
    let mut f = Fields {
        id: None,
        app: None,
        mode: None,
        policy: None,
        page_size: None,
        ptws: None,
        chiplets: None,
        seed: None,
        frames: None,
        timeout_ms: None,
        smoke: false,
        paper: false,
        gmmu: false,
        migration: false,
    };
    for (k, val) in pairs {
        match k.as_str() {
            "id" => {
                let id = want_str(k, val)?;
                if id.len() > 128 {
                    return Err("field id longer than 128 bytes".to_string());
                }
                if id.chars().any(|c| (c as u32) < 0x20) {
                    return Err("field id contains control characters".to_string());
                }
                f.id = Some(id);
            }
            "app" => {
                let name = want_str(k, val)?;
                if app_by_name(&name).is_none() {
                    return Err(format!("unknown app {name}"));
                }
                f.app = Some(name);
            }
            "mode" => {
                let name = want_str(k, val)?;
                f.mode = Some(
                    canonical_mode(&name)
                        .ok_or_else(|| format!("unknown mode {name}"))?
                        .to_string(),
                );
            }
            "policy" => {
                let name = want_str(k, val)?;
                f.policy = Some(
                    canonical_policy(&name)
                        .ok_or_else(|| format!("unknown policy {name}"))?
                        .to_string(),
                );
            }
            "page_size" => {
                let name = want_str(k, val)?;
                f.page_size = Some(
                    canonical_page_size(&name)
                        .ok_or_else(|| format!("unknown page size {name}"))?
                        .to_string(),
                );
            }
            "ptws" => match val {
                Json::Str(s) if s == "inf" => f.ptws = Some("inf".to_string()),
                _ => {
                    let n = val
                        .as_u64()
                        .ok_or("field ptws must be a positive integer or \"inf\"")?;
                    if n == 0 || n > 65_536 {
                        return Err(format!("ptws {n} outside 1..=65536 (or \"inf\")"));
                    }
                    f.ptws = Some(n.to_string());
                }
            },
            "chiplets" => {
                let n = want_u64(k, val)?;
                if !(1..=64).contains(&n) {
                    return Err(format!("chiplets {n} outside 1..=64"));
                }
                f.chiplets = Some(n);
            }
            "seed" => f.seed = Some(want_u64(k, val)?),
            "frames" => {
                let n = want_u64(k, val)?;
                if n == 0 {
                    return Err("frames must be at least 1".to_string());
                }
                f.frames = Some(n);
            }
            "timeout_ms" => {
                let n = want_u64(k, val)?;
                if n == 0 || n > 3_600_000 {
                    return Err(format!("timeout_ms {n} outside 1..=3600000"));
                }
                f.timeout_ms = Some(n);
            }
            "smoke" => f.smoke = want_bool(k, val)?,
            "paper" => f.paper = want_bool(k, val)?,
            "gmmu" => f.gmmu = want_bool(k, val)?,
            "migration" => f.migration = want_bool(k, val)?,
            other => return Err(format!("unknown field {other}")),
        }
    }
    let app = f.app.ok_or("missing required field app")?;
    if f.smoke && f.paper {
        return Err("smoke and paper are mutually exclusive".to_string());
    }
    // Canonical argv: fixed flag order, so fingerprints are a pure
    // function of request *content*.
    let mut args: Vec<String> = vec!["run".into(), "--metrics-json".into()];
    if f.smoke {
        args.push("--smoke".into());
    }
    if f.paper {
        args.push("--paper".into());
    }
    args.push("--app".into());
    args.push(app.clone());
    if let Some(m) = &f.mode {
        args.push("--mode".into());
        args.push(m.clone());
    }
    if let Some(p) = &f.policy {
        args.push("--policy".into());
        args.push(p.clone());
    }
    if let Some(ps) = &f.page_size {
        args.push("--page-size".into());
        args.push(ps.clone());
    }
    if let Some(p) = &f.ptws {
        args.push("--ptws".into());
        args.push(p.clone());
    }
    if let Some(c) = f.chiplets {
        args.push("--chiplets".into());
        args.push(c.to_string());
    }
    if f.gmmu {
        args.push("--gmmu".into());
    }
    if f.migration {
        args.push("--migration".into());
    }
    if let Some(n) = f.frames {
        args.push("--frames".into());
        args.push(n.to_string());
    }
    if let Some(s) = f.seed {
        args.push("--seed".into());
        args.push(s.to_string());
    }
    let parts: Vec<&str> = args.iter().map(String::as_str).collect();
    let fp = fingerprint(&parts);
    let label = format!("{app}/{}", f.mode.as_deref().unwrap_or("default"));
    Ok(ValidRequest {
        id: f.id,
        label,
        child_args: args,
        fingerprint: fp,
        timeout_ms: f.timeout_ms,
    })
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => format!(",\"id\":{}", quote(id)),
        None => String::new(),
    }
}

/// Success response. `metrics_json` is the canonical [`RunMetrics`]
/// encoding — the whole line is a pure function of the request content,
/// which is what makes cache hits byte-identical to cold runs.
///
/// [`RunMetrics`]: barre_system::RunMetrics
pub fn render_ok(
    id: Option<&str>,
    fp: &str,
    label: &str,
    digest: &str,
    hist_digest: &str,
    metrics_json: &str,
) -> String {
    format!(
        "{{\"status\":\"ok\"{}{},\"label\":{},\"digest\":{},\"hist_digest\":{},\"metrics\":{}}}",
        id_field(id),
        format_args!(",\"fingerprint\":{}", quote(fp)),
        quote(label),
        quote(digest),
        quote(hist_digest),
        metrics_json
    )
}

/// Structured non-success response (`status` is one of `error`,
/// `failed`, `timeout`, `quarantined`, `draining`).
pub fn render_reject(id: Option<&str>, status: &str, code: u16, error: &str) -> String {
    format!(
        "{{\"status\":{}{},\"code\":{code},\"error\":{}}}",
        quote(status),
        id_field(id),
        quote(error)
    )
}

/// Load-shed response: the admission queue is full; retry after the
/// hinted delay.
pub fn render_shed(id: Option<&str>, retry_after_ms: u64) -> String {
    format!(
        "{{\"status\":\"shed\"{},\"code\":429,\"retry_after_ms\":{retry_after_ms}}}",
        id_field(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_request_parses_and_is_canonical() {
        let r = parse_request(r#"{"app":"gups"}"#).expect("parse");
        assert_eq!(r.label, "gups/default");
        assert_eq!(r.child_args[0], "run");
        assert_eq!(r.child_args[1], "--metrics-json");
        assert!(r.id.is_none() && r.timeout_ms.is_none());
    }

    #[test]
    fn aliases_collapse_to_one_fingerprint() {
        let a = parse_request(r#"{"app":"gups","mode":"fbarre","page_size":"4k","policy":"rr"}"#)
            .expect("a");
        let b = parse_request(
            r#"{"policy":"round-robin","page_size":"4kb","mode":"fbarre2","app":"gups"}"#,
        )
        .expect("b");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.child_args, b.child_args);
    }

    #[test]
    fn id_and_timeout_do_not_change_the_fingerprint() {
        let a = parse_request(r#"{"app":"gemv","smoke":true}"#).expect("a");
        let b =
            parse_request(r#"{"id":"x-1","app":"gemv","smoke":true,"timeout_ms":500}"#).expect("b");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(b.id.as_deref(), Some("x-1"));
        assert_eq!(b.timeout_ms, Some(500));
    }

    #[test]
    fn different_content_means_different_fingerprints() {
        let a = parse_request(r#"{"app":"gemv","seed":1}"#).expect("a");
        let b = parse_request(r#"{"app":"gemv","seed":2}"#).expect("b");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"mode":"barre"}"#,
            r#"{"app":"nosuch"}"#,
            r#"{"app":"gups","mode":"warp-drive"}"#,
            r#"{"app":"gups","typo_field":1}"#,
            r#"{"app":"gups","smoke":true,"paper":true}"#,
            r#"{"app":"gups","chiplets":0}"#,
            r#"{"app":"gups","chiplets":65}"#,
            r#"{"app":"gups","ptws":0}"#,
            r#"{"app":"gups","frames":0}"#,
            r#"{"app":"gups","timeout_ms":0}"#,
            r#"{"app":"gups","smoke":"yes"}"#,
            r#"{"app":"gups","id":"a\tb"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn ptws_inf_and_numbers_parse() {
        let a = parse_request(r#"{"app":"gups","ptws":"inf"}"#).expect("inf");
        assert!(a.child_args.contains(&"inf".to_string()));
        let b = parse_request(r#"{"app":"gups","ptws":8}"#).expect("8");
        assert!(b.child_args.contains(&"8".to_string()));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn name_helpers_cover_all_labels() {
        for m in [
            "baseline",
            "valkyrie",
            "least",
            "shared-l2",
            "barre",
            "fbarre",
            "fbarre1",
            "fbarre4",
        ] {
            assert!(mode_by_name(m).is_some(), "{m}");
            assert!(canonical_mode(m).is_some(), "{m}");
        }
        for p in ["lasp", "coda", "rr", "chunking"] {
            assert!(policy_by_name(p).is_some(), "{p}");
            assert!(canonical_policy(p).is_some(), "{p}");
        }
        for s in ["4k", "64k", "2m"] {
            assert!(page_size_by_name(s).is_some(), "{s}");
            assert!(canonical_page_size(s).is_some(), "{s}");
        }
    }

    #[test]
    fn responses_are_single_json_lines() {
        for line in [
            render_ok(Some("i1"), "f", "gups/barre", "d", "h", "{}"),
            render_reject(None, "error", 400, "unknown app zz"),
            render_shed(Some("i2"), 1500),
        ] {
            assert!(!line.contains('\n'));
            assert!(Json::parse(&line).is_ok(), "{line}");
        }
    }
}
