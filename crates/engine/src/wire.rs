//! Wire codecs for the engine's session types — [`SweepSpec`],
//! [`SweepEvent`] and [`AggregateUpdate`] — over the checksummed frame
//! layer of `hetrta-api` ([`hetrta_api::wire`]).
//!
//! The payloads are deliberately textual, in the bit-exact style of
//! [`AnalysisOutcome::encode`](hetrta_api::AnalysisOutcome::encode):
//! every `f64` travels as its sixteen-hex-digit bit pattern (so a
//! decoded aggregate is *bitwise* the encoder's — the determinism
//! contract survives the network), `Option`s travel as `-`, and any
//! defect decodes to a typed [`WireError`] rather than a panic or
//! silent garbage. The frame layer around the payload contributes the
//! magic, version and FNV checksum.
//!
//! A cell travels as one generic line read off
//! [`CELL_STATS`](crate::CELL_STATS): its coordinates, then one token per
//! statistic of its shape. The update header names the shape, so the
//! codec knows no analysis and a new statistic needs no change here.

use std::time::Duration;

use hetrta_api::wire::{
    self, fbits, malformed, opt_fbits, parse_fbits, parse_num, Tokens, WireError,
};
use hetrta_cond::CondGenParams;
use hetrta_gen::NfjParams;
use hetrta_sched::taskset::TaskSetParams;

use crate::aggregate::{AggregateUpdate, CellSummary, StatKind, SweepAggregate};
use crate::session::SweepEvent;
use crate::spec::{AnalysisSelection, CellShape, GeneratorPreset, SweepGrid, SweepSpec};

/// Frame kind tag of an encoded [`AggregateUpdate`].
pub const KIND_AGGREGATE: u8 = 0x11;

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

fn encode_nfj(p: &NfjParams) -> String {
    format!(
        "{}:{}:{}:{}:{}:{}:{}:{}",
        fbits(p.p_par()),
        p.n_par(),
        p.max_depth(),
        p.n_min(),
        p.n_max(),
        p.c_min(),
        p.c_max(),
        p.max_attempts()
    )
}

fn decode_nfj(fields: &[&str]) -> Result<NfjParams, WireError> {
    if fields.len() != 8 {
        return Err(malformed(format!(
            "generator parameters need 8 fields, got {}",
            fields.len()
        )));
    }
    Ok(NfjParams::new(
        parse_num(fields[1], "n_par")?,
        parse_num(fields[2], "max_depth")?,
        parse_num(fields[3], "n_min")?,
        parse_num(fields[4], "n_max")?,
    )
    .with_p_par(parse_fbits(fields[0])?)
    .with_wcet_range(
        parse_num(fields[5], "c_min")?,
        parse_num(fields[6], "c_max")?,
    )
    .with_max_attempts(parse_num(fields[7], "max_attempts")?))
}

fn encode_preset(preset: &GeneratorPreset) -> String {
    match preset {
        GeneratorPreset::Small => "small".into(),
        GeneratorPreset::Large => "large".into(),
        GeneratorPreset::LargePaper => "paper".into(),
        GeneratorPreset::LargeGraphs(n) => format!("graphs:{n}"),
        GeneratorPreset::Custom(p) => format!("custom:{}", encode_nfj(p)),
    }
}

fn decode_preset(s: &str) -> Result<GeneratorPreset, WireError> {
    let fields: Vec<&str> = s.split(':').collect();
    match fields[0] {
        "small" => Ok(GeneratorPreset::Small),
        "large" => Ok(GeneratorPreset::Large),
        "paper" => Ok(GeneratorPreset::LargePaper),
        "graphs" if fields.len() == 2 => {
            Ok(GeneratorPreset::LargeGraphs(parse_num(fields[1], "n_max")?))
        }
        "custom" => Ok(GeneratorPreset::Custom(decode_nfj(&fields[1..])?)),
        other => Err(malformed(format!("unknown generator preset `{other}`"))),
    }
}

fn encode_u64_list(values: &[u64]) -> String {
    let strings: Vec<String> = values.iter().map(u64::to_string).collect();
    strings.join(",")
}

fn decode_u64_list(s: &str, what: &str) -> Result<Vec<u64>, WireError> {
    s.split(',').map(|t| parse_num(t, what)).collect()
}

fn encode_f64_list(values: &[f64]) -> String {
    let strings: Vec<String> = values.iter().map(|v| fbits(*v)).collect();
    strings.join(",")
}

fn decode_f64_list(s: &str) -> Result<Vec<f64>, WireError> {
    s.split(',').map(parse_fbits).collect()
}

fn encode_set_template(t: &TaskSetParams) -> String {
    format!(
        "{}:{}:{}:{}:{}:{}:{}",
        t.n_tasks,
        fbits(t.total_util),
        fbits(t.util_cap),
        encode_nfj(&t.nfj),
        fbits(t.offload_fraction.0),
        fbits(t.offload_fraction.1),
        fbits(t.deadline_ratio)
    )
}

fn decode_set_template(s: &str) -> Result<TaskSetParams, WireError> {
    let fields: Vec<&str> = s.split(':').collect();
    if fields.len() != 14 {
        return Err(malformed(format!(
            "set template needs 14 fields, got {}",
            fields.len()
        )));
    }
    Ok(TaskSetParams {
        n_tasks: parse_num(fields[0], "n_tasks")?,
        total_util: parse_fbits(fields[1])?,
        util_cap: parse_fbits(fields[2])?,
        nfj: decode_nfj(&fields[3..11])?,
        offload_fraction: (parse_fbits(fields[11])?, parse_fbits(fields[12])?),
        deadline_ratio: parse_fbits(fields[13])?,
    })
}

fn encode_cond_template(t: &CondGenParams) -> String {
    format!(
        "{}:{}:{}:{}:{}:{}",
        fbits(t.p_par),
        fbits(t.p_cond),
        t.n_par,
        t.max_depth,
        t.c_min,
        t.c_max
    )
}

fn decode_cond_template(s: &str) -> Result<CondGenParams, WireError> {
    let fields: Vec<&str> = s.split(':').collect();
    if fields.len() != 6 {
        return Err(malformed(format!(
            "cond template needs 6 fields, got {}",
            fields.len()
        )));
    }
    Ok(CondGenParams {
        p_par: parse_fbits(fields[0])?,
        p_cond: parse_fbits(fields[1])?,
        n_par: parse_num(fields[2], "n_par")?,
        max_depth: parse_num(fields[3], "max_depth")?,
        c_min: parse_num(fields[4], "c_min")?,
        c_max: parse_num(fields[5], "c_max")?,
    })
}

/// Encodes a [`SweepSpec`] as fixed-order `key value` lines, floats as
/// bit patterns, so a daemon re-expands exactly the sweep the client
/// validated locally.
#[must_use]
pub fn encode_spec(spec: &SweepSpec) -> String {
    let (grid_tag, grid_values) = match &spec.grid {
        SweepGrid::OffloadFractions(v) => ("fractions", v),
        SweepGrid::SampledFractions(v) => ("sampled", v),
        SweepGrid::NormalizedUtilizations(v) => ("utils", v),
        SweepGrid::CondShares(v) => ("shares", v),
    };
    let keys: Vec<&str> = spec.analyses.keys().iter().map(|k| k.as_ref()).collect();
    let mut out = String::new();
    out.push_str(&format!("preset {}\n", encode_preset(&spec.preset)));
    out.push_str(&format!("cores {}\n", encode_u64_list(&spec.core_counts)));
    out.push_str(&format!(
        "grid {grid_tag} {}\n",
        encode_f64_list(grid_values)
    ));
    out.push_str(&format!("per-point {}\n", spec.jobs_per_point));
    out.push_str(&format!("seeds {}\n", encode_u64_list(&spec.seeds)));
    out.push_str(&format!("analyses {}\n", keys.join(",")));
    out.push_str(&format!(
        "set-template {}\n",
        spec.set_template
            .as_ref()
            .map_or_else(|| "-".into(), encode_set_template)
    ));
    out.push_str(&format!(
        "cond-template {}\n",
        spec.cond_template
            .as_ref()
            .map_or_else(|| "-".into(), encode_cond_template)
    ));
    out.push_str(&format!("n-tasks {}\n", spec.n_tasks));
    out.push_str(&format!(
        "exact-budget {}\n",
        spec.exact_node_budget
            .map_or_else(|| "-".into(), |b| b.to_string())
    ));
    out.push_str(&format!("realization-cap {}\n", spec.realization_cap));
    out.push_str(&format!(
        "sim-transformed {}\n",
        u8::from(spec.sim_transformed)
    ));
    out.push_str(&format!("explore-seeds {}\n", spec.explore_seeds));
    out.push_str(&format!("sample-budget {}\n", spec.sample_budget));
    out.push_str(&format!("sample-seed {}\n", spec.sample_seed));
    out
}

/// Decodes one [`encode_spec`] text.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the offending line or field; nothing
/// panics on untrusted input.
pub fn decode_spec(text: &str) -> Result<SweepSpec, WireError> {
    let mut lines = text.lines();
    let mut field = |key: &str| -> Result<String, WireError> {
        let line = lines
            .next()
            .ok_or_else(|| malformed(format!("spec truncated before `{key}`")))?;
        let rest = line
            .strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| malformed(format!("expected `{key} …`, got `{line}`")))?;
        Ok(rest.to_string())
    };

    let preset = decode_preset(&field("preset")?)?;
    let core_counts = decode_u64_list(&field("cores")?, "core count")?;
    let grid_field = field("grid")?;
    let (grid_tag, grid_rest) = grid_field
        .split_once(' ')
        .ok_or_else(|| malformed(format!("grid line `{grid_field}` has no values")))?;
    let grid_values = decode_f64_list(grid_rest)?;
    let grid = match grid_tag {
        "fractions" => SweepGrid::OffloadFractions(grid_values),
        "sampled" => SweepGrid::SampledFractions(grid_values),
        "utils" => SweepGrid::NormalizedUtilizations(grid_values),
        "shares" => SweepGrid::CondShares(grid_values),
        other => return Err(malformed(format!("unknown grid kind `{other}`"))),
    };
    let jobs_per_point = parse_num(&field("per-point")?, "jobs per point")?;
    let seeds = decode_u64_list(&field("seeds")?, "seed")?;
    let analyses = AnalysisSelection::from_keys(
        field("analyses")?
            .split(',')
            .filter(|t| !t.is_empty())
            .map(str::to_string),
    );
    let set_template = match field("set-template")?.as_str() {
        "-" => None,
        packed => Some(decode_set_template(packed)?),
    };
    let cond_template = match field("cond-template")?.as_str() {
        "-" => None,
        packed => Some(decode_cond_template(packed)?),
    };
    let n_tasks = parse_num(&field("n-tasks")?, "n_tasks")?;
    let exact_node_budget = match field("exact-budget")?.as_str() {
        "-" => None,
        n => Some(parse_num(n, "exact budget")?),
    };
    let realization_cap = parse_num(&field("realization-cap")?, "realization cap")?;
    let sim_transformed = match field("sim-transformed")?.as_str() {
        "0" => false,
        "1" => true,
        other => {
            return Err(malformed(format!(
                "sim-transformed must be 0/1, got `{other}`"
            )))
        }
    };
    let explore_seeds = parse_num(&field("explore-seeds")?, "explore seeds")?;
    let sample_budget = parse_num(&field("sample-budget")?, "sample budget")?;
    let sample_seed = parse_num(&field("sample-seed")?, "sample seed")?;
    if let Some(extra) = lines.next() {
        if !extra.trim().is_empty() {
            return Err(malformed(format!("trailing spec line `{extra}`")));
        }
    }
    Ok(SweepSpec {
        preset,
        core_counts,
        grid,
        jobs_per_point,
        seeds,
        analyses,
        set_template,
        cond_template,
        n_tasks,
        exact_node_budget,
        realization_cap,
        sim_transformed,
        explore_seeds,
        sample_budget,
        sample_seed,
    })
}

// ---------------------------------------------------------------------------
// Cells and aggregate updates
// ---------------------------------------------------------------------------

/// Wire names of the cell shapes.
const SHAPES: [(CellShape, &str); 3] = [
    (CellShape::Task, "task"),
    (CellShape::Set, "set"),
    (CellShape::Cond, "cond"),
];

fn shape_name(shape: CellShape) -> &'static str {
    SHAPES
        .iter()
        .find(|(s, _)| *s == shape)
        .map(|&(_, name)| name)
        .expect("every shape has a wire name")
}

fn parse_shape(token: &str) -> Result<CellShape, WireError> {
    SHAPES
        .iter()
        .find(|(_, name)| *name == token)
        .map(|&(shape, _)| shape)
        .ok_or_else(|| malformed(format!("unknown cell shape `{token}`")))
}

/// One cell line: `m`, the grid value's bits, `samples`, then one token
/// per statistic of `shape` in column order — `-` when absent, decimal
/// for counts and shares, sixteen hex digits of the bit pattern for reals.
fn encode_cell(out: &mut String, shape: CellShape, cell: &CellSummary) {
    out.push_str(&format!(
        "{} {} {}",
        cell.m,
        fbits(cell.grid_value),
        cell.samples
    ));
    for def in shape.stats() {
        let token = match def.kind {
            StatKind::Count | StatKind::Share => cell
                .count(def.stat)
                .map_or_else(|| "-".into(), |c| c.to_string()),
            StatKind::Real => opt_fbits(cell.real(def.stat)),
        };
        out.push(' ');
        out.push_str(&token);
    }
    out.push('\n');
}

fn decode_cell(shape: CellShape, tokens: &mut Tokens<'_>) -> Result<CellSummary, WireError> {
    let m = parse_num(tokens.next()?, "core count")?;
    let grid_value = parse_fbits(tokens.next()?)?;
    let samples = parse_num(tokens.next()?, "samples")?;
    let mut cell = CellSummary::new(shape, m, grid_value, samples);
    for def in shape.stats() {
        match (tokens.next()?, def.kind) {
            ("-", _) => {}
            (token, StatKind::Count | StatKind::Share) => {
                cell.set_count(def.stat, parse_num(token, def.name)?);
            }
            (token, StatKind::Real) => cell.set_real(def.stat, parse_fbits(token)?),
        }
    }
    Ok(cell)
}

/// Encodes an [`AggregateUpdate`] as a header line (tag, cell shape,
/// sequence number, cell count) plus one line per carried cell — the
/// keyframe/delta structure survives the wire, so remote consumers
/// reassemble with the same [`AggregateView`](crate::AggregateView) local
/// ones use.
#[must_use]
pub fn encode_update(update: &AggregateUpdate) -> String {
    let mut out = String::new();
    match update {
        AggregateUpdate::Keyframe { seq, aggregate } => {
            let shape = aggregate.shape;
            let count = aggregate.cells.len();
            out.push_str(&format!("keyframe {} {seq} {count}\n", shape_name(shape)));
            for cell in &aggregate.cells {
                encode_cell(&mut out, shape, cell);
            }
        }
        AggregateUpdate::Delta { seq, changed } => {
            // A delta's cells share one shape; an empty delta names any.
            let shape = changed
                .first()
                .and_then(|(_, cell)| cell.shape())
                .unwrap_or(CellShape::Task);
            let count = changed.len();
            out.push_str(&format!("delta {} {seq} {count}\n", shape_name(shape)));
            for (index, cell) in changed {
                out.push_str(&format!("{index} "));
                encode_cell(&mut out, shape, cell);
            }
        }
    }
    out
}

/// Decodes one [`encode_update`] text.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the defect; decoded floats are
/// bitwise the encoder's.
pub fn decode_update(text: &str) -> Result<AggregateUpdate, WireError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| malformed("empty aggregate update"))?;
    let mut head = Tokens::new(header, "update header");
    let tag = head.next()?;
    let shape = parse_shape(head.next()?)?;
    let seq = parse_num(head.next()?, "sequence number")?;
    let count: usize = parse_num(head.next()?, "cell count")?;
    head.finish()?;
    let mut cell_line = |what: &'static str| -> Result<Tokens<'_>, WireError> {
        lines
            .next()
            .map(|line| Tokens::new(line, what))
            .ok_or_else(|| malformed(format!("update truncated: missing {what} line")))
    };
    let update = match tag {
        "keyframe" => {
            let mut cells = Vec::with_capacity(count);
            for _ in 0..count {
                let mut tokens = cell_line("keyframe cell")?;
                cells.push(decode_cell(shape, &mut tokens)?);
                tokens.finish()?;
            }
            AggregateUpdate::Keyframe {
                seq,
                aggregate: SweepAggregate { shape, cells },
            }
        }
        "delta" => {
            let mut changed = Vec::with_capacity(count);
            for _ in 0..count {
                let mut tokens = cell_line("delta cell")?;
                let index = parse_num(tokens.next()?, "cell index")?;
                changed.push((index, decode_cell(shape, &mut tokens)?));
                tokens.finish()?;
            }
            AggregateUpdate::Delta { seq, changed }
        }
        other => return Err(malformed(format!("unknown update tag `{other}`"))),
    };
    if let Some(extra) = lines.next() {
        if !extra.trim().is_empty() {
            return Err(malformed(format!("trailing update line `{extra}`")));
        }
    }
    Ok(update)
}

impl AggregateUpdate {
    /// Encodes this update as one checksummed wire frame
    /// ([`KIND_AGGREGATE`]).
    #[must_use]
    pub fn encode_frame(&self) -> Vec<u8> {
        wire::encode_frame(KIND_AGGREGATE, encode_update(self).as_bytes())
    }

    /// Decodes one [`AggregateUpdate::encode_frame`] frame. Corruption,
    /// truncation, version bumps, wrong frame kinds and unparseable
    /// payloads all map to typed [`WireError`]s.
    ///
    /// # Errors
    ///
    /// Every defect maps to its [`WireError`] variant; nothing panics.
    pub fn decode_frame(buf: &[u8]) -> Result<AggregateUpdate, WireError> {
        let (kind, payload) = wire::decode_frame(buf)?;
        if kind != KIND_AGGREGATE {
            return Err(malformed(format!(
                "frame kind {kind:#04x} is not an aggregate update"
            )));
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| malformed("aggregate payload is not utf-8"))?;
        decode_update(text)
    }
}

// ---------------------------------------------------------------------------
// SweepEvent
// ---------------------------------------------------------------------------

/// Encodes a [`SweepEvent`] (first token is the event tag; a
/// `PartialAggregate` carries its update text on the following lines).
#[must_use]
pub fn encode_event(event: &SweepEvent) -> String {
    match event {
        SweepEvent::JobStarted { index } => format!("started {index}"),
        SweepEvent::JobFinished {
            index,
            cell,
            key,
            cache_hit,
            wall_time,
        } => format!(
            "finished {index} {cell} {key:032x} {} {}",
            u8::from(*cache_hit),
            wall_time.as_nanos()
        ),
        SweepEvent::PartialAggregate {
            completed,
            total,
            update,
        } => format!("partial {completed} {total}\n{}", encode_update(update)),
        SweepEvent::SweepFinished {
            completed,
            cancelled,
            events_dropped,
        } => format!("done {completed} {} {events_dropped}", u8::from(*cancelled)),
    }
}

/// Decodes one [`encode_event`] text.
///
/// # Errors
///
/// [`WireError::Malformed`] naming the defect; nothing panics.
pub fn decode_event(text: &str) -> Result<SweepEvent, WireError> {
    let (first, rest) = match text.split_once('\n') {
        Some((first, rest)) => (first, rest),
        None => (text, ""),
    };
    let mut tokens = Tokens::new(first, "event");
    let event = match tokens.next()? {
        "started" => SweepEvent::JobStarted {
            index: parse_num(tokens.next()?, "job index")?,
        },
        "finished" => SweepEvent::JobFinished {
            index: parse_num(tokens.next()?, "job index")?,
            cell: parse_num(tokens.next()?, "cell index")?,
            key: {
                let hex = tokens.next()?;
                if hex.len() != 32 {
                    return Err(malformed(format!(
                        "content key `{hex}` is not 32 hex digits"
                    )));
                }
                u128::from_str_radix(hex, 16)
                    .map_err(|_| malformed(format!("unparseable content key `{hex}`")))?
            },
            cache_hit: match tokens.next()? {
                "0" => false,
                "1" => true,
                other => return Err(malformed(format!("cache-hit bit `{other}` is not 0/1"))),
            },
            wall_time: {
                let nanos: u64 = parse_num(tokens.next()?, "wall time")?;
                Duration::from_nanos(nanos)
            },
        },
        "partial" => {
            let completed = parse_num(tokens.next()?, "completed count")?;
            let total = parse_num(tokens.next()?, "total count")?;
            tokens.finish()?;
            return Ok(SweepEvent::PartialAggregate {
                completed,
                total,
                update: decode_update(rest)?,
            });
        }
        "done" => SweepEvent::SweepFinished {
            completed: parse_num(tokens.next()?, "completed count")?,
            cancelled: match tokens.next()? {
                "0" => false,
                "1" => true,
                other => return Err(malformed(format!("cancelled bit `{other}` is not 0/1"))),
            },
            events_dropped: parse_num(tokens.next()?, "dropped count")?,
        },
        other => return Err(malformed(format!("unknown event tag `{other}`"))),
    };
    tokens.finish()?;
    if !rest.trim().is_empty() {
        return Err(malformed("trailing lines after a single-line event"));
    }
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CellStat;
    use crate::spec::GeneratorPreset;
    use crate::AggregateView;

    /// Float bit patterns the codec must carry exactly: ±0, ±∞, NaNs
    /// with random payloads, subnormals, and arbitrary bits.
    fn real_bits(word: u64) -> f64 {
        let sign = word & (1 << 63);
        f64::from_bits(match word % 6 {
            0 => sign,
            1 => sign | 0x7FF0_0000_0000_0000,
            2 => word | 0x7FF0_0000_0000_0001,
            3 => word & 0x800F_FFFF_FFFF_FFFF,
            _ => word,
        })
    }

    /// A cell of `shape` drawn from `seed`: each statistic is absent a
    /// third of the time, reals are raw bit patterns and counts reach
    /// `u64::MAX`.
    fn random_cell(shape: CellShape, seed: u64) -> CellSummary {
        let mut words = (0..).map(|i| hetrta_sched::acceptance::splitmix64(seed ^ (i << 40)));
        let mut word = || words.next().expect("endless");
        let mut cell = CellSummary::new(shape, word(), real_bits(word()), word() as usize);
        for def in shape.stats() {
            let pick = word();
            match (pick % 3, def.kind) {
                (0, _) => {}
                (_, StatKind::Real) => cell.set_real(def.stat, real_bits(word())),
                (1, _) => cell.set_count(def.stat, u64::MAX - pick % 2),
                _ => cell.set_count(def.stat, word() >> (pick % 64)),
            }
        }
        cell
    }

    /// Every number an update carries, reals as bit patterns: NaN ≠ NaN,
    /// so equal bits are the witness of a bitwise round trip. A keyframe
    /// leads with its shape, a delta with `None`.
    fn bits(update: &AggregateUpdate) -> Vec<Option<u64>> {
        let (head, cells): (_, Vec<_>) = match update {
            AggregateUpdate::Keyframe { aggregate, .. } => (
                Some(aggregate.shape as u64),
                aggregate.cells.iter().enumerate().collect(),
            ),
            AggregateUpdate::Delta { changed, .. } => {
                (None, changed.iter().map(|(i, cell)| (*i, cell)).collect())
            }
        };
        let mut out = vec![Some(update.seq()), head];
        for (index, cell) in cells {
            let shape = cell.shape().expect("a cell of a known shape");
            out.extend([
                Some(shape as u64),
                Some(index as u64),
                Some(cell.m),
                Some(cell.grid_value.to_bits()),
                Some(cell.samples as u64),
            ]);
            out.extend(shape.stats().iter().map(|def| match def.kind {
                StatKind::Real => cell.real(def.stat).map(f64::to_bits),
                StatKind::Count | StatKind::Share => cell.count(def.stat),
            }));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn random_cells_of_every_shape_roundtrip_bitwise(
            shape in 0usize..3,
            seed: u64,
            cells in 0u64..5,
            seq: u64,
            delta: bool,
        ) {
            let shape = SHAPES[shape].0;
            let cells = (0..cells).map(|i| random_cell(shape, seed.wrapping_add(i)));
            let update = if delta {
                AggregateUpdate::Delta {
                    seq,
                    changed: cells.enumerate().map(|(i, cell)| (3 * i + 1, cell)).collect(),
                }
            } else {
                AggregateUpdate::Keyframe {
                    seq,
                    aggregate: SweepAggregate {
                        shape,
                        cells: cells.collect(),
                    },
                }
            };
            let text = encode_update(&update);
            let back = decode_update(&text).unwrap_or_else(|e| panic!("{e} for:\n{text}"));
            proptest::prop_assert_eq!(bits(&back), bits(&update));
            let framed = AggregateUpdate::decode_frame(&update.encode_frame()).expect("frame");
            proptest::prop_assert_eq!(bits(&framed), bits(&update));
        }
    }

    fn sample_specs() -> Vec<SweepSpec> {
        vec![
            SweepSpec::fractions(
                GeneratorPreset::Small,
                vec![2, 8],
                vec![0.05, 0.30],
                8,
                0xDAC_2018,
            ),
            SweepSpec::suspension(vec![4], vec![10.0, 20.0], 6, 1),
            SweepSpec::acceptance(
                TaskSetParams::small(5, 2.0),
                vec![4, 16],
                vec![0.3, 0.5, 0.7],
                5,
                10,
                3,
            ),
            SweepSpec::conditional(CondGenParams::small(), vec![2], vec![0.25, 0.4], 12, 512),
            SweepSpec::fractions(
                GeneratorPreset::Custom(
                    NfjParams::new(5, 4, 10, 50)
                        .with_p_par(0.65)
                        .with_wcet_range(3, 77)
                        .with_max_attempts(12345),
                ),
                vec![2],
                vec![0.1],
                4,
                7,
            ),
        ]
    }

    #[test]
    fn spec_roundtrips_reencode_identically() {
        for spec in sample_specs() {
            let text = encode_spec(&spec);
            let back = decode_spec(&text).unwrap_or_else(|e| panic!("{e} for:\n{text}"));
            // SweepSpec has no PartialEq; re-encoding is the bitwise
            // equality witness (every float travels as its bit pattern).
            assert_eq!(encode_spec(&back), text);
            // And the decoded spec expands to the same job count.
            assert_eq!(back.job_count(), spec.job_count());
        }
    }

    #[test]
    fn decoded_spec_produces_identical_aggregate() {
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 4, 11);
        let engine = crate::Engine::new(2);
        let local = engine.run(&spec).unwrap();
        let remote = engine
            .run(&decode_spec(&encode_spec(&spec)).unwrap())
            .unwrap();
        assert_eq!(local.aggregate, remote.aggregate);
    }

    #[test]
    fn malformed_specs_error_typed() {
        let good = encode_spec(&sample_specs()[0]);
        for bad in [
            String::new(),
            "preset frob\ncores 2".to_string(),
            good.replace("per-point 8", "per-point eight"),
            good.replace("cores 2,8", "cores 2,borked"),
            good.replace("grid fractions", "grid pentagons"),
            good.replace("sim-transformed 0", "sim-transformed maybe"),
            format!("{good}surprise extra line\n"),
        ] {
            assert!(
                matches!(decode_spec(&bad), Err(WireError::Malformed(_))),
                "decoded unexpectedly:\n{bad}"
            );
        }
    }

    #[test]
    fn malformed_cell_lines_error_typed() {
        let (grid, real) = (fbits(0.5), fbits(2.5));
        let set = |line: &str| format!("keyframe set 0 1\n4 {grid} 9 {line}\n");
        assert!(decode_update(&set("1 2 3 4 5 6")).is_ok());
        for bad in [
            set("1 2 3 4 5 6 7"),                          // one token too many
            set("1 2 3 4 5"),                              // one token too few
            set("1 x 3 4 5 6"),                            // non-numeric count
            set("1 2 3 4 5 6").replace(&grid, "3fe00000"), // short float
            set("1 2 3 4 5 6").replace("set", "hexagon"),  // unknown shape
            format!("keyframe cond 0 1\n2 {grid} 6 5 12 {real} {real}\n"), // count as real
            format!("delta cond 3 1\n0 2 {grid} 6 5 {real} {real}\n"), // delta, one short
        ] {
            assert!(
                matches!(decode_update(&bad), Err(WireError::Malformed(_))),
                "decoded unexpectedly:\n{bad}"
            );
        }
    }

    #[test]
    fn corrupt_and_version_bumped_update_frames_error_typed() {
        let update = AggregateUpdate::Keyframe {
            seq: 0,
            aggregate: SweepAggregate {
                shape: CellShape::Task,
                cells: vec![random_cell(CellShape::Task, 7)],
            },
        };
        let frame = update.encode_frame();

        let mut corrupt = frame.clone();
        let mid = frame.len() / 2;
        corrupt[mid] ^= 0x40;
        assert_eq!(
            AggregateUpdate::decode_frame(&corrupt),
            Err(WireError::Checksum)
        );

        let mut bumped = frame.clone();
        bumped[5] = bumped[5].wrapping_add(3);
        assert!(matches!(
            AggregateUpdate::decode_frame(&bumped),
            Err(WireError::Version { .. })
        ));

        assert_eq!(
            AggregateUpdate::decode_frame(&frame[..frame.len() - 2]),
            Err(WireError::Truncated)
        );

        let alien = wire::encode_frame(0x66, b"keyframe task 0 0\n");
        assert!(matches!(
            AggregateUpdate::decode_frame(&alien),
            Err(WireError::Malformed(_))
        ));

        for text in [
            "keyframe task 0 2\n",                // promises cells it lacks
            "keyframe task zero 0\n",             // unparseable seq
            "delta task 1 1\nnotanindex 2 x 3\n", // garbage delta line
            "hologram task 1 0\n",                // unknown tag
        ] {
            assert!(
                matches!(decode_update(text), Err(WireError::Malformed(_))),
                "decoded unexpectedly: {text:?}"
            );
        }
    }

    #[test]
    fn events_roundtrip_and_remote_view_reassembles() {
        let events = vec![
            SweepEvent::JobStarted { index: 7 },
            SweepEvent::JobFinished {
                index: 7,
                cell: 2,
                key: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
                cache_hit: true,
                wall_time: Duration::from_nanos(123_456_789),
            },
            SweepEvent::PartialAggregate {
                completed: 12,
                total: 48,
                update: AggregateUpdate::Delta {
                    seq: 4,
                    changed: vec![(0, {
                        let mut cell = CellSummary::new(CellShape::Task, 2, 0.05, 17);
                        cell.set_count(CellStat::S21, 9);
                        cell.set_real(CellStat::MeanImprovement, 12.75);
                        cell
                    })],
                },
            },
            SweepEvent::SweepFinished {
                completed: 48,
                cancelled: false,
                events_dropped: 3,
            },
        ];
        for event in &events {
            let text = encode_event(event);
            assert_eq!(&decode_event(&text).unwrap(), event, "text:\n{text}");
        }

        // End to end: a real sweep's partial updates survive the text
        // codec transparently — a view fed decoded updates reconstructs
        // bitwise the same snapshots as a view fed the originals.
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.1, 0.3], 4, 5);
        let engine = crate::Engine::new(2);
        let handle = engine
            .submit_with(
                &spec,
                crate::SessionConfig {
                    job_events: false,
                    partial_every: Some(1),
                    ..crate::SessionConfig::default()
                },
            )
            .unwrap();
        let mut local_view = AggregateView::new();
        let mut remote_view = AggregateView::new();
        let mut partials = 0usize;
        while let Some(event) = handle.next_event() {
            if let SweepEvent::PartialAggregate { update, .. } = event {
                let decoded = decode_update(&encode_update(&update)).unwrap();
                assert_eq!(decoded, update);
                local_view.apply(&update);
                remote_view.apply(&decoded);
                assert_eq!(remote_view.snapshot(), local_view.snapshot());
                partials += 1;
            }
        }
        handle.wait().unwrap();
        assert!(partials > 0, "the sweep must have streamed partials");
        assert!(remote_view.snapshot().is_some(), "view ends in sync");
    }

    #[test]
    fn malformed_events_error_typed() {
        for text in [
            "",
            "exploded 1",
            "started",
            "started x",
            "finished 1 2 deadbeef 1 5", // short key
            "finished 1 2",              // truncated
            "done 4 maybe 0",
            "done 4 1", // missing drop count
            "started 1 extra",
            "started 1\ntrailing line",
        ] {
            assert!(
                matches!(decode_event(text), Err(WireError::Malformed(_))),
                "decoded unexpectedly: {text:?}"
            );
        }
    }
}
