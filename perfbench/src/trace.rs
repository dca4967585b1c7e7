//! Reader for the Chrome trace-event JSON that `TraceRecorder` writes,
//! and the self-time fold over it.
//!
//! The reader is deliberately independent of the program's own JSON
//! code: it parses the exported document as any trace viewer would, so
//! the ledger measures what the trace says, not what the exporter meant.

use std::collections::BTreeMap;

/// One complete (`"ph": "X"`) event.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Event name; `analysis` spans carry their registry key as
    /// `analysis[key]`.
    pub name: String,
    /// Chrome `tid`: lane 0 is the session thread, lane `1 + k` worker `k`.
    pub lane: u32,
    /// Start, microseconds since the recorder's epoch.
    pub ts: f64,
    /// Duration, microseconds.
    pub dur: f64,
}

/// Self-time ledger entry for one `(span name, lane)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Folded {
    /// Spans folded.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed duration minus time covered by direct children, microseconds.
    pub self_us: f64,
}

/// Parses a Chrome trace document into its complete events.
pub fn read_chrome(text: &str) -> Result<Vec<Span>, String> {
    let doc = Parser::new(text).document()?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("trace has no traceEvents array")?;
    let mut spans = Vec::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let field = |key: &str| {
            event
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("X event without numeric {key}"))
        };
        let mut name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or("X event without name")?
            .to_string();
        let detail = event
            .get("args")
            .and_then(|a| a.get("detail"))
            .and_then(Json::as_str);
        if let Some(key) = detail.and_then(|d| d.strip_prefix("key=")) {
            name = format!("{name}[{key}]");
        }
        spans.push(Span {
            name,
            lane: field("tid")? as u32,
            ts: field("ts")?,
            dur: field("dur")?,
        });
    }
    Ok(spans)
}

/// Folds spans into per-`(name, lane)` totals and self times. A span's
/// children are the spans on its lane that start inside it and end no
/// later than it does (the exporter keeps three decimals of a
/// microsecond, so ends are compared with that slack).
pub fn fold(spans: &[Span]) -> BTreeMap<(String, u32), Folded> {
    const SLACK_US: f64 = 0.002;
    let mut by_lane: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_lane.entry(span.lane).or_default().push(span);
    }
    let mut out: BTreeMap<(String, u32), Folded> = BTreeMap::new();
    for (lane, mut lane_spans) in by_lane {
        // Parents sort before the children they enclose.
        lane_spans.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(b.dur.total_cmp(&a.dur)));
        let mut self_us: Vec<f64> = lane_spans.iter().map(|s| s.dur).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, span) in lane_spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let parent = lane_spans[top];
                if span.ts + span.dur <= parent.ts + parent.dur + SLACK_US {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                self_us[parent] -= span.dur;
            }
            stack.push(i);
        }
        for (span, own) in lane_spans.iter().zip(self_us) {
            let entry = out.entry((span.name.clone(), lane)).or_default();
            entry.count += 1;
            entry.total_us += span.dur;
            entry.self_us += own.max(0.0);
        }
    }
    out
}

/// A parsed JSON value (just what trace documents need).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn document(mut self) -> Result<Json, String> {
        let value = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of document".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len() && !matches!(self.bytes[self.pos], b'"' | b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.pos + 1).ok_or("dangling escape")?;
                    self.pos += 2;
                    match escaped {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"traceEvents":[
        {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker 0"}},
        {"name":"job","cat":"hetrta","ph":"X","ts":0.000,"dur":100.000,"pid":1,"tid":1,"args":{"depth":0,"detail":"index=0"}},
        {"name":"materialize","cat":"hetrta","ph":"X","ts":1.000,"dur":60.000,"pid":1,"tid":1,"args":{"depth":1}},
        {"name":"analysis","cat":"hetrta","ph":"X","ts":61.000,"dur":30.000,"pid":1,"tid":1,"args":{"depth":1,"detail":"key=het"}},
        {"name":"ctx.transform","cat":"hetrta","ph":"X","ts":62.000,"dur":10.000,"pid":1,"tid":1,"args":{"depth":2}},
        {"name":"sweep","cat":"hetrta","ph":"X","ts":0.000,"dur":120.000,"pid":1,"tid":0,"args":{"depth":0,"detail":"a \"q\" A"}},
        {"name":"pool.queue_depth","ph":"C","ts":3.0,"pid":1,"args":{"value":4}}
    ],"displayTimeUnit":"ms"}"#;

    #[test]
    fn folds_self_time_per_name_and_lane() {
        let spans = read_chrome(DOC).expect("parses");
        assert_eq!(spans.len(), 5);
        let folded = fold(&spans);
        let get = |name: &str, lane| folded[&(name.to_string(), lane)];
        assert_eq!(get("job", 1).self_us, 10.0);
        assert_eq!(get("materialize", 1).self_us, 60.0);
        assert_eq!(get("analysis[het]", 1).self_us, 20.0);
        assert_eq!(get("ctx.transform", 1).self_us, 10.0);
        assert_eq!(get("sweep", 0).total_us, 120.0);
    }

    #[test]
    fn rejects_broken_documents() {
        assert!(read_chrome("{\"traceEvents\":[").is_err());
        assert!(read_chrome("{}").is_err());
        assert!(read_chrome("[] x").is_err());
    }
}
