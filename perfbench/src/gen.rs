//! Seeded input generation with planted truth.
//!
//! Everything the program under test receives is made here from the
//! run's `--seed`: the dictionary artifact, the query pools, the Zipf
//! logs and the dictionary deltas. Alongside each query the generator
//! records what the right answer is — the planted surface, its entity,
//! its token span and the distance of the edit applied to it — so the
//! checker never has to ask the program what the answer should be.
//!
//! Dictionary shape: every surface is `brand line model`. The 96
//! brand/line pairs are spread evenly over the surfaces, so at 120k
//! surfaces each pair is shared by 1,250 of them and only the model
//! token tells them apart. Model numbers are unique. A misspelling is
//! exactly one edit to a letter of the brand or line token, and the
//! damaged letter part is never itself a real brand/line pair; the
//! planted surface is then the only one within one edit of the mention,
//! because every other surface differs from it in the model token too.

use crate::check::{osa, Span, Truth};

const BRANDS: [&str; 12] = [
    "canon",
    "nikon",
    "kodak",
    "sony",
    "fujifilm",
    "pentax",
    "olympus",
    "leica",
    "sigma",
    "casio",
    "panasonic",
    "minolta",
];
const LINES: [&str; 8] = [
    "eos",
    "coolpix",
    "easyshare",
    "cyber shot",
    "finepix",
    "optio",
    "stylus",
    "lumix",
];
const SUFFIXES: [u8; 5] = [b'd', b'x', b's', b'z', b't'];
/// Context around a mention. No word here is a dictionary token, and
/// none carries a digit, so no window that includes context can come
/// within the fuzzy budget of a surface.
const PREFIXES: [&str; 6] = [
    "",
    "best price for ",
    "cheap ",
    "buy ",
    "compare ",
    "where to buy ",
];
const SUFFIXES_CTX: [&str; 6] = [
    "",
    " near san francisco",
    " reviews",
    " reviews and deals",
    " manual pdf",
    " battery charger",
];
const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, tag)`: different tags give independent
    /// streams of one run, so adding a draw to one input does not shift
    /// the others.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One dictionary row.
#[derive(Debug, Clone)]
pub struct Surface {
    pub pair: usize,
    pub text: String,
    pub entity: u32,
}

/// The generated dictionary plus the reserve of model numbers deltas
/// draw fresh surfaces from.
pub struct Dictionary {
    pub surfaces: Vec<Surface>,
    /// Unused model numbers, unique against every surface.
    spare_models: Vec<u32>,
    /// First entity id no surface uses.
    pub next_entity: u32,
}

fn pair_text(pair: usize) -> String {
    format!(
        "{} {}",
        BRANDS[pair % BRANDS.len()],
        LINES[pair / BRANDS.len()]
    )
}

fn pair_count() -> usize {
    BRANDS.len() * LINES.len()
}

impl Dictionary {
    pub fn generate(seed: u64, n: usize, spare: usize) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut models: Vec<u32> = (0..(n + spare) as u32).map(|i| 100 + i).collect();
        rng.shuffle(&mut models);
        let mut entities: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut entities);
        let surfaces = (0..n)
            .map(|i| {
                let pair = i % pair_count();
                let suffix = SUFFIXES[rng.below(SUFFIXES.len())] as char;
                Surface {
                    pair,
                    text: format!("{} {}{suffix}", pair_text(pair), models[i]),
                    entity: entities[i],
                }
            })
            .collect();
        Dictionary {
            surfaces,
            spare_models: models[n..].to_vec(),
            next_entity: n as u32,
        }
    }

    /// The artifact the worker loads (`EntityMatcher::to_tsv` format):
    /// a fuzzy header carrying the program's default fuzzy settings,
    /// then one `surface TAB entity` row per surface.
    pub fn to_tsv(&self) -> String {
        let c = websyn_core::FuzzyConfig::default();
        let mut out = format!(
            "#!fuzzy\tgram_size={}\tmin_len_one_edit={}\tmin_len_two_edits={}\tmax_distance={}\ttranspositions={}\tphonetic={}\tabbrev={}\ttoken_signature={}\n",
            c.gram_size,
            c.min_len_one_edit,
            c.min_len_two_edits,
            c.max_distance,
            c.transpositions,
            c.phonetic,
            c.abbrev,
            c.token_signature
        );
        out.reserve(self.surfaces.len() * 32);
        for s in &self.surfaces {
            out.push_str(&s.text);
            out.push('\t');
            out.push_str(&s.entity.to_string());
            out.push('\n');
        }
        out
    }
}

/// One distinct query of a pool with its planted answer.
#[derive(Debug, Clone)]
pub struct Query {
    pub raw: String,
    pub truth: Truth,
    /// The normalized mention as sent (after any misspelling).
    pub mention: String,
    /// The same query with the planted surface spelled correctly.
    pub clean: String,
    /// Index of the planted surface in the dictionary.
    pub surface: usize,
    /// The edit applied, if any: its kind and byte offset into the
    /// brand/line text.
    pub edit: Option<(&'static str, usize)>,
}

/// Applies one letter edit of kind `kind` (0 substitute, 1 delete,
/// 2 insert, 3 transpose) at a random letter of the brand token
/// (`in_line` false) or of the line part of `letters`, returning the
/// damaged text, the edit kind and its byte offset.
fn misspell(
    rng: &mut Rng,
    letters: &str,
    in_line: bool,
    kind: usize,
) -> (String, &'static str, usize) {
    let bytes = letters.as_bytes();
    let brand_len = letters.find(' ').expect("brand and line");
    let (from, to) = if in_line {
        (brand_len + 1, bytes.len())
    } else {
        (0, brand_len)
    };
    loop {
        let pos = from + rng.below(to - from);
        if bytes[pos] == b' ' {
            continue;
        }
        let mut out = bytes.to_vec();
        let kind = match kind {
            0 => {
                let c = LETTERS[rng.below(LETTERS.len())];
                if c == bytes[pos] {
                    continue;
                }
                out[pos] = c;
                "substitute"
            }
            1 => {
                // Keep every token at least two letters long.
                let token_len = letters[..pos].rsplit(' ').next().map_or(0, str::len)
                    + letters[pos..].split(' ').next().map_or(0, str::len);
                if token_len <= 2 {
                    continue;
                }
                out.remove(pos);
                "delete"
            }
            2 => {
                out.insert(pos, LETTERS[rng.below(LETTERS.len())]);
                "insert"
            }
            _ => {
                if pos + 1 >= bytes.len() || bytes[pos + 1] == b' ' || bytes[pos] == bytes[pos + 1]
                {
                    continue;
                }
                out.swap(pos, pos + 1);
                "transpose"
            }
        };
        return (String::from_utf8(out).expect("ascii"), kind, pos);
    }
}

/// Builds a pool of distinct queries over the dictionary surfaces
/// listed in `order` (one surface per query, rank = position). Odd
/// ranks are misspelled, and the damaged token and the edit kind cycle
/// with the rank too, so every seed's popular head has the same mix of
/// clean and damaged mentions: the seed picks surfaces and letters, not
/// how much matching work the head costs.
pub fn query_pool(seed: u64, tag: u64, dict: &Dictionary, order: &[usize]) -> Vec<Query> {
    let mut rng = Rng::new(seed, tag);
    let real_pairs: Vec<String> = (0..pair_count()).map(pair_text).collect();
    order
        .iter()
        .enumerate()
        .map(|(rank, &si)| {
            let surface = &dict.surfaces[si];
            let letters = pair_text(surface.pair);
            let model = &surface.text[letters.len() + 1..];
            let (damaged, edit) = if rank % 2 == 1 {
                loop {
                    let (d, kind, pos) =
                        misspell(&mut rng, &letters, rank / 2 % 2 == 1, rank / 4 % 4);
                    // One edit must leave a letter part that is no real
                    // pair, or a surface of that pair with this model
                    // number would be an exact competitor.
                    if !real_pairs.contains(&d) && osa(&d, &letters) == 1 {
                        break (d, Some((kind, pos)));
                    }
                }
            } else {
                (letters.clone(), None)
            };
            let mention = format!("{damaged} {model}");
            let prefix = PREFIXES[rng.below(PREFIXES.len())];
            let suffix = SUFFIXES_CTX[rng.below(SUFFIXES_CTX.len())];
            // Some queries arrive capitalised or punctuated, as typed;
            // normalization folds both away.
            let shown = match rng.below(4) {
                0 => capitalize(&mention),
                1 => format!("{mention}!"),
                _ => mention.clone(),
            };
            let raw = format!("{prefix}{shown}{suffix}");
            let clean = format!("{prefix}{}{suffix}", surface.text);
            let start = prefix.split_whitespace().count();
            let end = start + mention.split(' ').count();
            let truth = Truth::Spans(vec![Span {
                start,
                end,
                entity: surface.entity,
                distance: osa(&mention, &surface.text),
                surface: surface.text.clone(),
            }]);
            Query {
                raw,
                truth,
                mention,
                clean,
                surface: si,
                edit,
            }
        })
        .collect()
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_ascii_uppercase().to_string() + c.as_str(),
        None => String::new(),
    }
}

/// A log of `len` pool indices drawn from Zipf(`s`) over ranks
/// `0..pool`.
pub fn zipf_log(seed: u64, tag: u64, pool: usize, s: f64, len: usize) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for rank in 0..pool {
        acc += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed, tag);
    (0..len)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c < u).min(pool - 1) as u32
        })
        .collect()
}

/// One dictionary delta and the reads that prove it landed.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The delta TSV body (`surface TAB entity`, `surface TAB -`).
    pub tsv: String,
    /// Post-ack checks: query text and the truth it must match.
    pub checks: Vec<(String, Truth)>,
}

/// Draws deltas from the surfaces in `reserve` (which no query pool
/// uses) and from fresh model numbers. Each delta carries two new
/// surfaces, one re-point of an existing surface to a fresh entity and
/// one tombstone.
pub struct DeltaSource {
    rng: Rng,
    reserve: Vec<usize>,
    fresh: usize,
}

impl DeltaSource {
    pub fn new(seed: u64, tag: u64, reserve: Vec<usize>) -> Self {
        DeltaSource {
            rng: Rng::new(seed, tag),
            reserve,
            fresh: 0,
        }
    }

    pub fn next(&mut self, dict: &mut Dictionary) -> Delta {
        let mut tsv = String::new();
        let mut checks = Vec::new();
        let check_query = |text: &str, truth_for: &dyn Fn(usize, usize) -> Truth| {
            let prefix = "where to buy ";
            let start = 3;
            let end = start + text.split(' ').count();
            (format!("{prefix}{text}"), truth_for(start, end))
        };
        for _ in 0..2 {
            let pair = self.rng.below(pair_count());
            let model = dict.spare_models[self.fresh];
            self.fresh += 1;
            let suffix = SUFFIXES[self.rng.below(SUFFIXES.len())] as char;
            let text = format!("{} {model}{suffix}", pair_text(pair));
            let entity = dict.next_entity;
            dict.next_entity += 1;
            tsv.push_str(&format!("{text}\t{entity}\n"));
            checks.push(check_query(&text, &|start, end| {
                exact(start, end, entity, &text)
            }));
        }
        let repoint = self.reserve.pop().expect("delta reserve exhausted");
        let text = dict.surfaces[repoint].text.clone();
        let entity = dict.next_entity;
        dict.next_entity += 1;
        dict.surfaces[repoint].entity = entity;
        tsv.push_str(&format!("{text}\t{entity}\n"));
        checks.push(check_query(&text, &|start, end| {
            exact(start, end, entity, &text)
        }));
        let gone = self.reserve.pop().expect("delta reserve exhausted");
        let text = dict.surfaces[gone].text.clone();
        tsv.push_str(&format!("{text}\t-\n"));
        let entity = dict.surfaces[gone].entity;
        checks.push(check_query(&text, &|_, _| Truth::Absent(entity)));
        Delta { tsv, checks }
    }
}

fn exact(start: usize, end: usize, entity: u32, surface: &str) -> Truth {
    Truth::Spans(vec![Span {
        start,
        end,
        entity,
        distance: 0,
        surface: surface.to_string(),
    }])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Dictionary::generate(7, 2_000, 100).to_tsv();
        let b = Dictionary::generate(7, 2_000, 100).to_tsv();
        let c = Dictionary::generate(8, 2_000, 100).to_tsv();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The claim the checker rests on: on a small dictionary, by brute
    /// force with the benchmark's own distance, every planted surface
    /// is the unique closest surface to its mention.
    #[test]
    fn planted_surface_is_the_unique_closest() {
        let dict = Dictionary::generate(3, 1_500, 0);
        let order: Vec<usize> = (0..600).collect();
        let pool = query_pool(3, 2, &dict, &order);
        assert_eq!(pool.iter().filter(|q| q.edit.is_some()).count(), 300);
        for q in &pool {
            let planted = osa(&q.mention, &dict.surfaces[q.surface].text);
            assert_eq!(planted, usize::from(q.edit.is_some()), "{}", q.raw);
            for (i, s) in dict.surfaces.iter().enumerate() {
                if i != q.surface {
                    assert!(osa(&q.mention, &s.text) > planted, "{} ~ {}", q.raw, s.text);
                }
            }
        }
    }

    #[test]
    fn zipf_log_is_skewed_and_in_range() {
        let log = zipf_log(1, 1, 100, 1.0, 10_000);
        assert!(log.iter().all(|&r| r < 100));
        let head = log.iter().filter(|&&r| r == 0).count();
        let tail = log.iter().filter(|&&r| r == 99).count();
        assert!(head > 10 * tail.max(1));
    }
}
