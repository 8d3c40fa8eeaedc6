//! `--compare A.json B.json`: one verdict per (workload, end-to-end metric)
//! row, plus the small JSON reader that loads what `--out` wrote.

use crate::metrics::{Better, END_TO_END};
use crate::stats::{quartiles, spread};

/// A parsed JSON value; only what `--out` files and `BENCHMARK.json` contain.
#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            J::Num(x) => Some(*x),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn str(&self) -> Option<&str> {
        match self {
            J::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[J] {
        match self {
            J::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn fields(&self) -> &[(String, J)] {
        match self {
            J::Obj(fields) => fields,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, value: J) -> Result<J, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.s.get(self.i).copied() {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    };
                    out.push(c);
                }
                Some(c) => out.push(c),
            }
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<J, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(J::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.eat(b',').is_err() {
                        self.eat(b'}')?;
                        return Ok(J::Obj(fields));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(J::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_err() {
                        self.eat(b']')?;
                        return Ok(J::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(J::Str),
            Some(b't') => self.literal("true", J::Bool(true)),
            Some(b'f') => self.literal("false", J::Bool(false)),
            Some(b'n') => self.literal("null", J::Null),
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
                    .and_then(|t| t.parse().ok())
                    .map(J::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

pub fn parse(text: &str) -> Result<J, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i == text.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.i))
    }
}

/// One (workload, metric) cell of a result set: the run-level value and the
/// same metric computed over each pass alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub passes: Vec<f64>,
}

/// Reads the cells back out of a `--out` document.
pub fn cells_of(doc: &J) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    let runs = doc.get("runs").ok_or("no \"runs\" object")?;
    for (workload, run) in runs.fields() {
        let metrics = run.get("metrics").ok_or("run without \"metrics\"")?;
        for (metric, m) in metrics.fields() {
            cells.push(Cell {
                workload: workload.clone(),
                metric: metric.clone(),
                value: m
                    .get("value")
                    .and_then(J::num)
                    .ok_or("metric without value")?,
                passes: m
                    .get("passes")
                    .map(|p| p.arr().iter().filter_map(J::num).collect())
                    .unwrap_or_default(),
            });
        }
    }
    Ok(cells)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread between passes is wider than the bound: the run cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

/// `worse` is B's change from A in the direction that hurts, as a share of A.
/// One bound cuts both ways: a change smaller than it, for better or for
/// worse, is within what the benchmark lets pass as noise.
pub fn verdict(worse: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison table; returns how many rows regressed.
pub fn compare(a: &[Cell], b: &[Cell]) -> usize {
    println!(
        "{:<16} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "worse", "bound"
    );
    let mut regressed = 0;
    for ca in a {
        let Some(def) = END_TO_END.iter().find(|d| d.name == ca.metric) else {
            continue;
        };
        let Some(cb) = b
            .iter()
            .find(|c| c.workload == ca.workload && c.metric == ca.metric)
        else {
            continue;
        };
        let change = (cb.value - ca.value) / ca.value;
        let worse = match def.better {
            Better::Lower => change,
            Better::Higher => -change,
        };
        let quart = |c: &Cell| {
            if c.passes.is_empty() {
                (format!("{:>25}", "-"), 0.0)
            } else {
                let (q1, _, q3) = quartiles(&c.passes);
                (format!("{:>12.6}..{:<11.6}", q1, q3), spread(&c.passes))
            }
        };
        let ((qa, sa), (qb, sb)) = (quart(ca), quart(cb));
        let v = verdict(worse, sa.max(sb), def.bound);
        regressed += usize::from(v == Verdict::Regressed);
        println!(
            "{:<16} {:<18} {:>12.6} {} {:>12.6} {} {:>+7.1}% {:>5.0}%  {}",
            ca.workload,
            ca.metric,
            ca.value,
            qa,
            cb.value,
            qb,
            100.0 * worse,
            100.0 * def.bound,
            format!("{v:?}").to_lowercase()
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_renderer_writes() {
        let text = r#"{"a": [1, -2.5e-3, true, null], "b": {"c": "x\"y"}, "d": []}"#;
        let j = parse(text).unwrap();
        assert_eq!(j.get("a").unwrap().arr()[1], J::Num(-0.0025));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().str(), Some("x\"y"));
        assert!(j.get("d").unwrap().arr().is_empty());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.30, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.05, 0.02, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(-0.01, 0.02, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(-0.05, 0.02, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(-0.30, 0.02, 0.10), Verdict::Improved);
        assert_eq!(verdict(0.30, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.0, 0.0, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn cells_round_trip_through_a_document() {
        let doc = parse(
            r#"{"seed":1,"runs":{"long_decode":{"correct":true,"metrics":
               {"ttft_s_p50":{"value":0.5,"unit":"s","n":8,"passes":[0.4,0.5,0.6]}}}}}"#,
        )
        .unwrap();
        let cells = cells_of(&doc).unwrap();
        assert_eq!(
            cells,
            vec![Cell {
                workload: "long_decode".into(),
                metric: "ttft_s_p50".into(),
                value: 0.5,
                passes: vec![0.4, 0.5, 0.6],
            }]
        );
        assert_eq!(compare(&cells, &cells), 0);
        let mut slower = cells.clone();
        slower[0].value = 0.7;
        slower[0].passes = vec![0.69, 0.7, 0.71];
        let mut steady = cells.clone();
        steady[0].passes = vec![0.49, 0.5, 0.51];
        assert_eq!(compare(&steady, &slower), 1);
    }
}
