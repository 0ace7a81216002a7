//! The answer checker: the benchmark's own edit distance, its own
//! readers for both wire formats, and the comparison against planted
//! truth. Nothing here calls into the program under test.

/// Optimal-string-alignment distance (adjacent transpositions count as
/// one edit) — the distance the matcher reports, computed with a plain
/// full-matrix DP over bytes.
pub fn osa(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let w = b.len() + 1;
    let mut d = vec![0usize; (a.len() + 1) * w];
    for i in 0..=a.len() {
        d[i * w] = i;
    }
    for (j, cell) in d.iter_mut().enumerate().take(w) {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[(i - 1) * w + j] + 1)
                .min(d[i * w + j - 1] + 1)
                .min(d[(i - 1) * w + j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * w + j - 2] + 1);
            }
            d[i * w + j] = best;
        }
    }
    d[a.len() * w + b.len()]
}

/// One resolved mention: token span `[start, end)` of the normalized
/// query, entity id, edit distance and the dictionary surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
    pub entity: u32,
    pub distance: usize,
    pub surface: String,
}

/// What a query must answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Truth {
    /// Exactly these spans, nothing more.
    Spans(Vec<Span>),
    /// Any answer that does not return this entity (a tombstoned
    /// surface).
    Absent(u32),
}

impl Truth {
    /// The exact body the program sends for this truth on `wire`, when
    /// the truth pins one down. Comparing bytes first keeps the check
    /// cheap on the hot path; a mismatch falls back to parsing.
    pub fn render(&self, wire: Wire) -> Option<String> {
        let Truth::Spans(spans) = self else {
            return None;
        };
        Some(match wire {
            Wire::Line => {
                let mut out = String::from("OK");
                for s in spans {
                    out.push_str(&format!(
                        "\t{},{},{},{},{}",
                        s.start, s.end, s.entity, s.distance, s.surface
                    ));
                }
                out
            }
            Wire::Http => {
                let items: Vec<String> = spans
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"start\":{},\"end\":{},\"entity\":{},\"distance\":{},\"surface\":\"{}\"}}",
                            s.start, s.end, s.entity, s.distance, s.surface
                        )
                    })
                    .collect();
                format!("{{\"spans\":[{}]}}", items.join(","))
            }
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    Line,
    Http,
}

/// Reads the spans of a line-protocol answer (`OK` then tab-separated
/// `start,end,entity,distance,surface` tuples).
pub fn parse_line(body: &str) -> Result<Vec<Span>, String> {
    let mut fields = body.split('\t');
    if fields.next() != Some("OK") {
        return Err(format!("not an OK line: {body:?}"));
    }
    fields
        .map(|f| {
            let mut parts = f.splitn(5, ',');
            let mut num = |name: &str| -> Result<usize, String> {
                parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("bad {name} in {f:?}"))
            };
            let (start, end, entity, distance) =
                (num("start")?, num("end")?, num("entity")?, num("distance")?);
            let surface = parts.next().ok_or_else(|| format!("no surface in {f:?}"))?;
            Ok(Span {
                start,
                end,
                entity: entity as u32,
                distance,
                surface: surface.to_string(),
            })
        })
        .collect()
}

/// Reads the spans of an HTTP `/match` JSON body. Only the shape the
/// program emits is accepted: `{"spans":[{...},...]}` with the five
/// fields of each span in any order.
pub fn parse_json(body: &str) -> Result<Vec<Span>, String> {
    let inner = body
        .trim()
        .strip_prefix("{\"spans\":[")
        .and_then(|b| b.strip_suffix("]}"))
        .ok_or_else(|| format!("not a spans body: {body:?}"))?;
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    let inner = inner
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or_else(|| format!("bad span list: {body:?}"))?;
    inner
        .split("},{")
        .map(|obj| {
            let (mut start, mut end, mut entity, mut distance, mut surface) =
                (None, None, None, None, None);
            for field in split_fields(obj) {
                let (key, value) = field
                    .split_once(':')
                    .ok_or_else(|| format!("bad field {field:?}"))?;
                let num = || value.parse::<usize>().map_err(|_| format!("bad {key}"));
                match key {
                    "\"start\"" => start = Some(num()?),
                    "\"end\"" => end = Some(num()?),
                    "\"entity\"" => entity = Some(num()? as u32),
                    "\"distance\"" => distance = Some(num()?),
                    "\"surface\"" => {
                        surface = Some(
                            value
                                .strip_prefix('"')
                                .and_then(|v| v.strip_suffix('"'))
                                .ok_or("bad surface")?
                                .to_string(),
                        )
                    }
                    other => return Err(format!("unknown field {other}")),
                }
            }
            Ok(Span {
                start: start.ok_or("no start")?,
                end: end.ok_or("no end")?,
                entity: entity.ok_or("no entity")?,
                distance: distance.ok_or("no distance")?,
                surface: surface.ok_or("no surface")?,
            })
        })
        .collect()
}

/// Splits `"a":1,"b":"x,y"` on the commas outside string values.
fn split_fields(obj: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut in_str, mut from) = (false, 0);
    for (i, c) in obj.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&obj[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    out.push(&obj[from..]);
    out
}

/// Checks one answer body against its truth; `Err` says what is wrong.
pub fn check(truth: &Truth, expected: Option<&str>, body: &str, wire: Wire) -> Result<(), String> {
    if expected == Some(body) {
        return Ok(());
    }
    let got = match wire {
        Wire::Line => parse_line(body)?,
        Wire::Http => parse_json(body)?,
    };
    match truth {
        Truth::Spans(want) => {
            if &got == want {
                Ok(())
            } else {
                Err(format!("want {want:?}, got {got:?}"))
            }
        }
        Truth::Absent(entity) => match got.iter().find(|s| s.entity == *entity) {
            Some(s) => Err(format!("tombstoned entity {entity} still answered: {s:?}")),
            None => Ok(()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: usize, end: usize, entity: u32, distance: usize, surface: &str) -> Span {
        Span {
            start,
            end,
            entity,
            distance,
            surface: surface.to_string(),
        }
    }

    fn planted() -> Truth {
        Truth::Spans(vec![span(2, 5, 41, 1, "canon eos 1234d")])
    }

    const GOOD_JSON: &str =
        r#"{"spans":[{"start":2,"end":5,"entity":41,"distance":1,"surface":"canon eos 1234d"}]}"#;

    #[test]
    fn hand_worked_distances() {
        assert_eq!(osa("", ""), 0);
        assert_eq!(osa("abc", ""), 3);
        assert_eq!(osa("", "ab"), 2);
        assert_eq!(osa("kitten", "sitting"), 3);
        assert_eq!(osa("canon", "cnaon"), 1); // one transposition
        assert_eq!(osa("ca", "abc"), 3); // OSA, not unrestricted Damerau (2)
        assert_eq!(osa("canon eos", "canan eos"), 1);
        assert_eq!(osa("nikon coolpix 120d", "nikon colpix 120d"), 1);
        assert_eq!(osa("flaw", "lawn"), 2);
    }

    #[test]
    fn accepts_the_planted_answer_on_both_wires() {
        let t = planted();
        assert_eq!(t.render(Wire::Http).as_deref(), Some(GOOD_JSON));
        assert!(check(&t, None, GOOD_JSON, Wire::Http).is_ok());
        assert!(check(&t, None, "OK\t2,5,41,1,canon eos 1234d", Wire::Line).is_ok());
        // Field order is not part of the contract.
        let reordered = r#"{"spans":[{"surface":"canon eos 1234d","entity":41,"start":2,"end":5,"distance":1}]}"#;
        assert!(check(&t, None, reordered, Wire::Http).is_ok());
    }

    #[test]
    fn rejects_a_wrong_entity() {
        let body = GOOD_JSON.replace("41", "42");
        assert!(check(&planted(), None, &body, Wire::Http).is_err());
        assert!(check(&planted(), None, "OK\t2,5,42,1,canon eos 1234d", Wire::Line).is_err());
    }

    #[test]
    fn rejects_a_shifted_span() {
        let body = GOOD_JSON.replace("\"start\":2,\"end\":5", "\"start\":3,\"end\":6");
        assert!(check(&planted(), None, &body, Wire::Http).is_err());
        assert!(check(&planted(), None, "OK\t1,4,41,1,canon eos 1234d", Wire::Line).is_err());
    }

    #[test]
    fn rejects_a_wrong_distance_or_surface() {
        let body = GOOD_JSON.replace("\"distance\":1", "\"distance\":0");
        assert!(check(&planted(), None, &body, Wire::Http).is_err());
        assert!(check(&planted(), None, "OK\t2,5,41,1,canon eos 1235d", Wire::Line).is_err());
    }

    #[test]
    fn rejects_a_missing_span() {
        assert!(check(&planted(), None, r#"{"spans":[]}"#, Wire::Http).is_err());
        assert!(check(&planted(), None, "OK", Wire::Line).is_err());
    }

    #[test]
    fn rejects_an_extra_span() {
        let body = GOOD_JSON.replace(
            "}]}",
            r#"},{"start":6,"end":9,"entity":7,"distance":0,"surface":"sony eos 100d"}]}"#,
        );
        assert_eq!(parse_json(&body).unwrap().len(), 2);
        assert!(check(&planted(), None, &body, Wire::Http).is_err());
        let line = "OK\t2,5,41,1,canon eos 1234d\t6,9,7,0,sony eos 100d";
        assert!(check(&planted(), None, line, Wire::Line).is_err());
    }

    #[test]
    fn rejects_a_live_tombstone() {
        let gone = Truth::Absent(41);
        assert!(check(&gone, None, GOOD_JSON, Wire::Http).is_err());
        assert!(check(&gone, None, "OK\t2,5,41,0,canon eos 1234d", Wire::Line).is_err());
        // Any other answer, including a neighbouring surface, is fine.
        assert!(check(&gone, None, r#"{"spans":[]}"#, Wire::Http).is_ok());
        assert!(check(&gone, None, "OK\t2,5,77,1,canon eos 1235d", Wire::Line).is_ok());
    }

    #[test]
    fn rejects_error_bodies() {
        assert!(check(&planted(), None, r#"{"error":"busy"}"#, Wire::Http).is_err());
        assert!(check(&planted(), None, "ERR busy", Wire::Line).is_err());
    }
}
