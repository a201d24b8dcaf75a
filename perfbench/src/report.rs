//! Results on paper: sample summaries, the JSON the benchmark writes and
//! reads back (no JSON crate resolves offline), the host fingerprint, and
//! `--compare`.

use crate::Res;
use std::fmt::Write as _;

/// Median and quartiles of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
    /// (exclusive method), so spreads here read like the driver's.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            let x = v.first().copied().unwrap_or(0.0);
            return Summary {
                median: x,
                q1: x,
                q3: x,
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
    /// Every repetition's value, in the order measured.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its repetitions.
    pub fn new(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name,
            unit,
            summary: Summary::of(samples),
            samples: samples.to_vec(),
        }
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A number as measured, with all its digits; non-finite values (a ratio
/// over an empty layer) are written as 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// A parsed JSON value — just enough to read `BENCHMARK.json` and the
/// benchmark's own result files back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Res<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.at).into());
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Res<Json> {
        self.ws();
        let Some(&c) = self.s.get(self.at) else {
            return Err("unexpected end of JSON".into());
        };
        match c {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        break;
                    }
                    if !fields.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.at).into());
                    }
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at offset {}", self.at).into());
                    }
                    fields.push((key, self.value()?));
                }
                Ok(Json::Obj(fields))
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        break;
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.at).into());
                    }
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at])?;
                Ok(Json::Num(text.parse().map_err(|_| {
                    format!("bad JSON value at offset {start}")
                })?))
            }
        }
    }

    fn string(&mut self) -> Res<String> {
        if !self.eat("\"") {
            return Err(format!("expected string at offset {}", self.at).into());
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.s.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(std::str::from_utf8(hex)?, 16)?;
                            self.at += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
        Ok(String::from_utf8(out)?)
    }
}

/// `yyyy-mm-dd` of a Unix time (UTC), by the civil-from-days rule.
pub fn date_of(unix_s: u64) -> String {
    let z = (unix_s / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint every result file carries.
pub fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let sizes: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\":\"{}\",\"tuples\":{},\"rate\":{},\"chunk_rows\":{},\"nodes\":{}}}",
                w.name, w.tuples, w.rate, w.chunk_rows, w.nodes
            )
        })
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"rustc\":\"{}\",\"commit\":\"{}\",\"date\":\"{}\",\"seed\":{seed},\"frozen\":[{}]}}",
        escape(&command_line("rustc", &["-V"])),
        escape(&command_line("git", &["rev-parse", "HEAD"])),
        date_of(now),
        sizes.join(",")
    )
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let median = metric.get("value")?.f64()?;
    let or_median = |key| metric.get(key).and_then(Json::f64).unwrap_or(median);
    Some(Summary {
        median,
        q1: or_median("q1"),
        q3: or_median("q3"),
        n: or_median("n") as usize,
    })
}

fn workload<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .arr()
        .iter()
        .find(|w| w.get("workload").and_then(Json::str) == Some(name))
}

fn failure_share(w: &Json) -> f64 {
    let field = |key| w.get(key).and_then(Json::f64).unwrap_or(0.0);
    field("ops_failed") / field("ops_attempted").max(1.0)
}

/// Compares two result files row by row against the bounds declared in
/// `benchmark` (the parsed `BENCHMARK.json`). Returns the printed table
/// and whether anything regressed.
pub fn compare(benchmark: &Json, old: &Json, new: &Json) -> Res<(String, bool)> {
    let mut failed = false;
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:<16} {:>14} {:>25} {:>14} {:>25} {:>6}  verdict",
        "workload", "metric", "old", "[q1, q3]", "new", "[q1, q3]", "bound"
    )?;
    let same_seed = old.get("fingerprint").and_then(|f| f.get("seed"))
        == new.get("fingerprint").and_then(|f| f.get("seed"));
    for w in benchmark.get("workloads").ok_or("no workloads")?.arr() {
        let name = w
            .get("name")
            .and_then(Json::str)
            .ok_or("unnamed workload")?;
        let (Some(ow), Some(nw)) = (workload(old, name), workload(new, name)) else {
            return Err(format!("workload {name} missing from a result file").into());
        };
        if failure_share(nw) > failure_share(ow) {
            failed = true;
            writeln!(out, "{name}: ops_failed / ops_attempted rose")?;
        }
        for m in benchmark.get("end_to_end").ok_or("no end_to_end")?.arr() {
            let metric = m.get("name").and_then(Json::str).ok_or("unnamed metric")?;
            let bound = m
                .get("bound")
                .and_then(Json::f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Json::str) == Some("lower");
            let find = |file: &Json| file.get("metrics")?.get(metric).and_then(summary_of);
            let (Some(o), Some(n)) = (find(ow), find(nw)) else {
                return Err(format!("{name}/{metric} missing from a result file").into());
            };
            let worse_by = if lower {
                n.median - o.median
            } else {
                o.median - n.median
            };
            let regressed = match metric {
                // The repo's byte-identical contract: on equal inputs any
                // movement is a behaviour change, whatever the bound.
                "bytes_per_tuple" if same_seed => n.median != o.median,
                // Millisecond set-ups: ignore changes under 5 ms.
                "setup_s" if worse_by < 0.005 => false,
                _ => worse_by > bound * o.median.abs(),
            };
            let verdict = if regressed {
                failed = true;
                "regressed"
            } else if o.spread().max(n.spread()) > bound {
                "unresolved"
            } else {
                "ok"
            };
            let quartiles = |s: &Summary| format!("[{:.4}, {:.4}]", s.q1, s.q3);
            writeln!(
                out,
                "{name:<14} {metric:<16} {:>14.4} {:>25} {:>14.4} {:>25} {bound:>6.3}  {verdict}",
                o.median,
                quartiles(&o),
                n.median,
                quartiles(&n),
            )?;
        }
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn json_round_trips_what_the_benchmark_writes() {
        let text = r#"{"a": [1, -2.5e3, true, null], "b": {"c": "x\"yé\n"}, "d": []}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().arr()[1].f64(), Some(-2500.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().str(),
            Some("x\"y\u{e9}\n")
        );
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn dates_are_civil() {
        assert_eq!(date_of(0), "1970-01-01");
        assert_eq!(date_of(951_782_400), "2000-02-29");
        assert_eq!(date_of(1_790_467_200), "2026-09-27");
    }

    fn result(value: f64, q1: f64, q3: f64, failed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"fingerprint": {{"seed": 1}}, "workloads": [{{"workload": "w", "ops_attempted": 100,
                "ops_failed": {failed}, "metrics": {{"m": {{"value": {value}, "q1": {q1}, "q3": {q3}, "n": 5}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compare_names_regressed_unresolved_and_ok() {
        let benchmark = Json::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let old = result(100.0, 99.0, 101.0, 0);
        let verdict = |new: &Json| {
            let (table, failed) = compare(&benchmark, &old, new).unwrap();
            let word = table
                .lines()
                .last()
                .unwrap()
                .split_whitespace()
                .last()
                .unwrap();
            (word.to_string(), failed)
        };
        assert_eq!(
            verdict(&result(105.0, 104.0, 106.0, 0)),
            ("ok".into(), false)
        );
        assert_eq!(
            verdict(&result(111.0, 110.0, 112.0, 0)),
            ("regressed".into(), true)
        );
        assert_eq!(
            verdict(&result(105.0, 95.0, 115.0, 0)),
            ("unresolved".into(), false)
        );
        // More failures per attempt fails the comparison on its own.
        assert!(
            compare(&benchmark, &old, &result(100.0, 99.0, 101.0, 3))
                .unwrap()
                .1
        );
    }
}
