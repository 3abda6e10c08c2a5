//! The farm wire protocol: newline-delimited JSON between the
//! `propdiff-run` parent and its `worker` child processes.
//!
//! The parent writes one [`Job`] line per shard to a worker's stdin; the
//! worker answers with exactly one [`Reply`] line on stdout and waits for
//! the next job. EOF on stdin is the shutdown signal. The protocol is
//! deliberately minimal:
//!
//! - A job names its cell by **suite name + manifest index** (plus the
//!   cell id as a cross-check), so the worker rebuilds the [`Cell`] from
//!   the same `manifest::suite` table the parent used — no cell
//!   serialization, no drift between the two sides of the pipe.
//! - The scale travels as its [`scale_tag`] string; [`parse_scale_tag`]
//!   is the exact inverse, and refuses a tag that is not canonical or
//!   names a scale the CLI would not run (`Scale::check`).
//! - A reply carries the shard's partial-result JSON verbatim. [`Json`]
//!   satisfies `parse ∘ serialize = identity`, so
//!   shipping a partial through the pipe cannot change any value — the
//!   foundation of the farm's byte-identity guarantee.
//!
//! [`Cell`]: experiments::cell::Cell

use experiments::Scale;
use pdd::telemetry::json::Json;

use crate::cache::scale_tag;

/// One shard-execution request, sent parent → worker as one line.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Suite name the cell index refers to.
    pub suite: String,
    /// Cell index into `manifest::suite(suite)`.
    pub cell: usize,
    /// The cell's id, cross-checked by the worker against its manifest.
    pub id: String,
    /// The scale to run at.
    pub scale: Scale,
    /// Which shard of the cell to run.
    pub shard: usize,
    /// Total shards the cell splits into at `scale`.
    pub shards: usize,
}

impl Job {
    /// Serializes the job as its single wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        Json::obj(vec![
            ("op", Json::Str("run".into())),
            ("suite", Json::Str(self.suite.clone())),
            ("cell", Json::Int(self.cell as i64)),
            ("id", Json::Str(self.id.clone())),
            ("scale", Json::Str(scale_tag(self.scale))),
            ("shard", Json::Int(self.shard as i64)),
            ("shards", Json::Int(self.shards as i64)),
        ])
        .serialize()
    }

    /// Parses one wire line back into a job.
    pub fn parse(line: &str) -> Result<Job, String> {
        let j = Json::parse(line).map_err(|e| format!("bad job line: {e}"))?;
        if j.get("op").and_then(Json::as_str) != Some("run") {
            return Err("job line lacks op=run".into());
        }
        let str_field = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job line lacks `{k}`"))
        };
        let int_field = |k: &str| -> Result<usize, String> {
            j.get(k)
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| format!("job line lacks `{k}`"))
        };
        let tag = str_field("scale")?;
        Ok(Job {
            suite: str_field("suite")?,
            cell: int_field("cell")?,
            id: str_field("id")?,
            scale: parse_scale_tag(&tag)?,
            shard: int_field("shard")?,
            shards: int_field("shards")?,
        })
    }
}

/// A worker's answer to one [`Job`], sent worker → parent as one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The shard ran: its partial result and optional registry snapshot.
    Ok {
        /// Echo of the job's cell index.
        cell: usize,
        /// Echo of the job's shard index.
        shard: usize,
        /// The shard's partial result, verbatim.
        partial: Json,
        /// The shard's `propdiff-metrics-v1` snapshot, if the cell is
        /// metered.
        registry: Option<String>,
    },
    /// The shard could not run (bad job, unknown suite, id mismatch).
    Err {
        /// Echo of the job's cell index (0 if the line didn't parse).
        cell: usize,
        /// Echo of the job's shard index (0 if the line didn't parse).
        shard: usize,
        /// What went wrong.
        error: String,
    },
}

impl Reply {
    /// Serializes the reply as its single wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        match self {
            Reply::Ok {
                cell,
                shard,
                partial,
                registry,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("cell", Json::Int(*cell as i64)),
                ("shard", Json::Int(*shard as i64)),
                ("partial", partial.clone()),
                (
                    "registry",
                    registry
                        .as_ref()
                        .map(|s| Json::Str(s.clone()))
                        .unwrap_or(Json::Null),
                ),
            ])
            .serialize(),
            Reply::Err { cell, shard, error } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("cell", Json::Int(*cell as i64)),
                ("shard", Json::Int(*shard as i64)),
                ("error", Json::Str(error.clone())),
            ])
            .serialize(),
        }
    }

    /// Parses one wire line back into a reply.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let j = Json::parse(line).map_err(|e| format!("bad reply line: {e}"))?;
        let int_field = |k: &str| -> Result<usize, String> {
            j.get(k)
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| format!("reply line lacks `{k}`"))
        };
        match j.get("ok") {
            Some(Json::Bool(true)) => Ok(Reply::Ok {
                cell: int_field("cell")?,
                shard: int_field("shard")?,
                partial: j
                    .get("partial")
                    .cloned()
                    .ok_or("reply line lacks `partial`")?,
                registry: match j.get("registry") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                },
            }),
            Some(Json::Bool(false)) => Ok(Reply::Err {
                cell: int_field("cell")?,
                shard: int_field("shard")?,
                error: j
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown worker error")
                    .to_string(),
            }),
            _ => Err("reply line lacks `ok`".into()),
        }
    }
}

/// Parses a [`scale_tag`] back into the [`Scale`] it names — the wire
/// inverse the worker uses to reconstruct the parent's scale.
///
/// # Errors
/// A tag that [`scale_tag`] would not write (`p0100s1`), or one naming a
/// scale that [`Scale::check`] refuses, as the CLI does (`p0s1`).
pub fn parse_scale_tag(tag: &str) -> Result<Scale, String> {
    let custom = || {
        let (punits, nseeds) = tag.strip_prefix('p')?.split_once('s')?;
        Some(Scale::Custom {
            punits: punits.parse().ok()?,
            nseeds: nseeds.parse().ok()?,
        })
    };
    let scale = match tag {
        "paper" => Some(Scale::Paper),
        "quick" => Some(Scale::Quick),
        "bench" => Some(Scale::Bench),
        _ => custom().filter(|&scale| scale_tag(scale) == tag),
    };
    let scale = scale.ok_or_else(|| format!("bad scale tag `{tag}`"))?;
    scale.check().map_err(|e| format!("scale tag `{tag}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tags_round_trip() {
        for scale in [
            Scale::Paper,
            Scale::Quick,
            Scale::Bench,
            Scale::Custom {
                punits: 2_000,
                nseeds: 3,
            },
        ] {
            assert_eq!(parse_scale_tag(&scale_tag(scale)), Ok(scale));
        }
        assert!(parse_scale_tag("p2000").is_err());
        assert!(parse_scale_tag("nope").is_err());
        assert!(parse_scale_tag("pxs2").is_err());
    }

    #[test]
    fn job_lines_name_only_canonical_scales_the_cli_would_run() {
        let line = |scale: &str| {
            format!(
                "{{\"op\":\"run\",\"suite\":\"fig1\",\"cell\":0,\"id\":\"fig1-s2-u0_7\",\
                 \"scale\":\"{scale}\",\"shard\":0,\"shards\":1}}"
            )
        };
        for tag in ["p100s1", "p30000s1000", "quick"] {
            let job = Job::parse(&line(tag)).expect(tag);
            assert_eq!(scale_tag(job.scale), tag);
        }
        for tag in [
            // Below the CLI's clamps: would run as all-null rows.
            "p0s1",
            "p1s1",
            "p99s1",
            "p100s0",
            "p100s1001",
            // 41 829 351 641 064 743 × 441 wraps the clock; u64::MAX p-units
            // would not answer for minutes.
            "p41829351641064743s1",
            "p18446744073709551615s1",
            // Not what `scale_tag` writes for any scale.
            "p0100s1",
            "p+100s1",
            "p100s01",
        ] {
            let err = Job::parse(&line(tag)).expect_err(tag);
            assert!(err.contains(tag), "{tag}: {err}");
        }
    }

    #[test]
    fn job_lines_round_trip() {
        let job = Job {
            suite: "fig1".into(),
            cell: 3,
            id: "fig1-s2-u0_8".into(),
            scale: Scale::Custom {
                punits: 2_000,
                nseeds: 3,
            },
            shard: 1,
            shards: 3,
        };
        assert_eq!(Job::parse(&job.to_line()), Ok(job));
        assert!(Job::parse("{}").is_err());
        assert!(Job::parse("{\"op\":\"run\"}").is_err());
    }

    #[test]
    fn reply_lines_round_trip() {
        // A registry snapshot full of quotes survives string escaping.
        let ok = Reply::Ok {
            cell: 5,
            shard: 2,
            partial: Json::obj(vec![("rows", Json::nums(&[1.5, 2.0]))]),
            registry: Some("{\"schema\":\"propdiff-metrics-v1\",\"decisions\":0}".into()),
        };
        assert_eq!(Reply::parse(&ok.to_line()), Ok(ok));
        let bare = Reply::Ok {
            cell: 0,
            shard: 0,
            partial: Json::Null,
            registry: None,
        };
        assert_eq!(Reply::parse(&bare.to_line()), Ok(bare));
        let err = Reply::Err {
            cell: 1,
            shard: 0,
            error: "unknown suite `nope`".into(),
        };
        assert_eq!(Reply::parse(&err.to_line()), Ok(err));
        assert!(Reply::parse("not json").is_err());
    }
}
