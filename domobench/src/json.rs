//! A minimal JSON reader for the `METRICS JSON` exposition (one object
//! per line), plus the histogram arithmetic the per-layer metrics need.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.value()? else {
                        return Err(format!("object key at {} is not a string", self.i));
                    };
                    self.eat(b':')?;
                    let v = self.value()?;
                    m.insert(k, v);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(a));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => {
                self.i += 1;
                let mut out = String::new();
                while let Some(&c) = self.s.get(self.i) {
                    self.i += 1;
                    match c {
                        b'"' => return Ok(Value::Str(out)),
                        b'\\' => {
                            let e = *self.s.get(self.i).ok_or("truncated escape")?;
                            self.i += 1;
                            match e {
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'r' => out.push('\r'),
                                b'u' => {
                                    let hex = self
                                        .s
                                        .get(self.i..self.i + 4)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .ok_or("bad \\u escape")?;
                                    self.i += 4;
                                    out.push(char::from_u32(hex).unwrap_or('?'));
                                }
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // Multi-byte UTF-8 passes through byte by byte.
                            let start = self.i - 1;
                            let len = match c {
                                0xF0..=0xFF => 4,
                                0xE0..=0xEF => 3,
                                0xC0..=0xDF => 2,
                                _ => 1,
                            };
                            let end = (start + len).min(self.s.len());
                            out.push_str(&String::from_utf8_lossy(&self.s[start..end]));
                            self.i = end;
                        }
                    }
                }
                Err("unterminated string".into())
            }
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }
}

/// One metric of a `METRICS JSON` exposition.
#[derive(Debug, Clone, Default)]
pub struct Metric {
    pub labels: BTreeMap<String, String>,
    /// Counter or gauge value.
    pub value: f64,
    /// Histogram sample count and sum.
    pub count: f64,
    pub sum: f64,
    /// Histogram `(upper bound, cumulative count)` pairs, `+Inf` last.
    pub buckets: Vec<(f64, f64)>,
}

/// Every metric of an exposition, grouped by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, Vec<Metric>>);

impl Metrics {
    /// Parses a JSON Lines exposition (`Recorder::render_jsonl`).
    pub fn parse(lines: &str) -> Result<Self, String> {
        let mut out: BTreeMap<String, Vec<Metric>> = BTreeMap::new();
        for line in lines.lines().filter(|l| !l.trim().is_empty()) {
            let v = parse(line)?;
            let name = v
                .get("name")
                .and_then(Value::str)
                .ok_or("metric without name")?;
            let mut m = Metric::default();
            if let Some(Value::Obj(labels)) = v.get("labels") {
                for (k, lv) in labels {
                    m.labels
                        .insert(k.clone(), lv.str().unwrap_or("").to_string());
                }
            }
            m.value = v.get("value").and_then(Value::num).unwrap_or(0.0);
            m.count = v.get("count").and_then(Value::num).unwrap_or(0.0);
            m.sum = v.get("sum").and_then(Value::num).unwrap_or(0.0);
            if let Some(Value::Arr(buckets)) = v.get("buckets") {
                for b in buckets {
                    let le = match b.get("le") {
                        Some(Value::Num(n)) => *n,
                        _ => f64::INFINITY,
                    };
                    m.buckets
                        .push((le, b.get("count").and_then(Value::num).unwrap_or(0.0)));
                }
            }
            out.entry(name.to_string()).or_default().push(m);
        }
        Ok(Self(out))
    }

    fn matching<'a>(
        &'a self,
        name: &str,
        label: Option<(&'a str, &'a str)>,
    ) -> impl Iterator<Item = &'a Metric> + 'a {
        self.0.get(name).into_iter().flatten().filter(move |m| {
            label.is_none_or(|(k, v)| m.labels.get(k).map(String::as_str) == Some(v))
        })
    }

    /// Sum of a counter's values over every label set matching `label`.
    pub fn counter(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.matching(name, label).fold(0.0, |acc, m| acc + m.value)
    }

    /// A histogram's sample sum (over matching label sets).
    pub fn hist_sum(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.matching(name, label).fold(0.0, |acc, m| acc + m.sum)
    }

    /// Quantile `q` of one histogram, interpolated linearly inside the
    /// bucket holding rank `⌈q·n⌉` (the exposition keeps only bucket
    /// counts, so this is exact to the bucket width). 0 when empty.
    pub fn hist_quantile(&self, name: &str, label: Option<(&str, &str)>, q: f64) -> f64 {
        let Some(m) = self.matching(name, label).next() else {
            return 0.0;
        };
        let total = m.buckets.last().map_or(0.0, |b| b.1);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut prev = (0.0, 0.0);
        for &(le, cum) in &m.buckets {
            if cum >= rank {
                if !le.is_finite() {
                    return prev.0;
                }
                let inside = cum - prev.1;
                let frac = if inside > 0.0 {
                    (rank - prev.1) / inside
                } else {
                    1.0
                };
                return prev.0 + frac * (le - prev.0);
            }
            prev = (le, cum);
        }
        prev.0
    }
}
