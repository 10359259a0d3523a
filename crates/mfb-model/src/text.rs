//! The `.assay` DSL (version 1): a human-writable, diff-friendly language
//! for bioassays, with a real parser, a canonical pretty-printer, and a
//! normalizing lowering into the synthesis vocabulary.
//!
//! ```text
//! assay-dsl 1                      # optional version pragma (default: 1)
//! assay "my panel"                 # optional display name
//!
//! # op <name> <kind> <duration>s (wash=<secs>s | d=<cm^2/s>)
//! op prepA mix    5s wash=4s
//! op prepB mix    5s wash=2s
//! op merge mix    4s d=5e-8
//! op read  detect 3s wash=0.2s
//!
//! # edge <parent> -> <child> [-> <grandchild> ...]
//! edge prepA -> merge -> read
//! edge prepB -> merge
//!
//! # optional flow constraints: base flow, transport constant, SA seed
//! flow dcsa t_c=2s seed=7
//!
//! # optional chip defects (cells blocked, components dead, cells slowed)
//! defect block 3 4
//! defect dead 1
//! defect slow 5 6 2
//!
//! # optional: alloc <mixers> <heaters> <filters> <detectors>
//! alloc 2 0 0 1
//! ```
//!
//! Parsing happens in two stages. [`parse_assay_ast`] is a recursive-descent
//! parser producing an [`AssayAst`] — the statements exactly as written,
//! each carrying its source [`Span`] — and every error it (or the later
//! lowering) reports is a [`ParseError`] with a 1-based line *and* column.
//! [`AssayAst::lower`] then normalizes the AST into an [`AssayFile`]: a
//! validated [`SequencingGraph`], the optional [`Allocation`], the flow
//! constraints, and a [`DefectMap`]. [`parse_assay`] runs both stages.
//!
//! [`write_assay_ast`] is the canonical pretty-printer: its output is stable
//! under `parse → print → parse` (the AST round-trips exactly, spans aside)
//! and printing is idempotent, which is what `mfb fmt --check` relies on.
//!
//! `wash=` values are converted into diffusion coefficients through the
//! paper-calibrated log-linear wash model during lowering; `d=` gives the
//! coefficient directly. The authored form is preserved in the AST, so the
//! formatter never rewrites one into the other.

use crate::component::Allocation;
use crate::defect::DefectMap;
use crate::fluid::DiffusionCoefficient;
use crate::geom::CellPos;
use crate::graph::{GraphError, SequencingGraph};
use crate::ids::{ComponentId, OpId};
use crate::operation::OperationKind;
use crate::time::Duration;
use crate::wash::LogLinearWash;
use std::collections::HashMap;
use std::fmt;

/// The newest grammar version this parser understands.
pub const DSL_VERSION: u32 = 1;

/// Durations (op execution times, `t_c`) accepted by the grammar, in
/// seconds. The bound keeps every downstream tick computation far away
/// from `u64` overflow while allowing any physically meaningful assay.
pub const MAX_DURATION_SECS: f64 = 1_000_000.0;

/// A 1-based source position (line, column) inside an `.assay` document.
/// Columns count characters, the way editors do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based character column.
    pub column: usize,
}

impl Span {
    /// A span at `(line, column)`.
    pub const fn new(line: usize, column: usize) -> Self {
        Span { line, column }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// How an `op` statement specified its residue: an explicit diffusion
/// coefficient, or a wash time to invert through the calibrated model.
/// The distinction is preserved so the pretty-printer can echo the
/// authored form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FluidSpec {
    /// `wash=<secs>s`: the residue washes out in this long.
    Wash(Duration),
    /// `d=<cm^2/s>`: the diffusion coefficient itself.
    Diffusion(DiffusionCoefficient),
}

impl FluidSpec {
    /// The diffusion coefficient this spec denotes under `model`.
    pub fn coefficient(&self, model: &LogLinearWash) -> DiffusionCoefficient {
        match *self {
            FluidSpec::Wash(t) => model.coefficient_for(t),
            FluidSpec::Diffusion(d) => d,
        }
    }
}

/// One `op` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct OpDecl {
    /// The operation's name (unique within the file).
    pub name: String,
    /// What the operation does.
    pub kind: OperationKind,
    /// Execution time.
    pub duration: Duration,
    /// The output residue, as authored.
    pub fluid: FluidSpec,
    /// Where the operation's name appears.
    pub span: Span,
}

/// One `edge` statement: a dependency chain of two or more op names.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDecl {
    /// The chained names, in order (`a -> b -> c` is `["a","b","c"]`).
    pub chain: Vec<String>,
    /// Where the statement starts.
    pub span: Span,
}

/// Which synthesis flow a `flow` statement selects as its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// The paper's distributed-channel-storage flow.
    Dcsa,
    /// The paper's baseline (BA) flow.
    Baseline,
}

impl FlowKind {
    /// The flow a keyword names: `dcsa`/`ours` or `baseline`/`ba`. This is
    /// the one keyword table; the DSL, batch manifests and the CLI's
    /// `--flow` flag all read it.
    pub fn parse(keyword: &str) -> Option<FlowKind> {
        match keyword {
            "dcsa" | "ours" => Some(FlowKind::Dcsa),
            "baseline" | "ba" => Some(FlowKind::Baseline),
            _ => None,
        }
    }

    /// The canonical keyword.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Dcsa => "dcsa",
            FlowKind::Baseline => "baseline",
        }
    }
}

/// The merged flow constraints of every `flow` statement in the file.
/// All fields are optional; consumers overlay them onto their own base
/// configuration (file-level settings lose to explicit CLI/manifest
/// overrides).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowDecl {
    /// Base flow selection.
    pub kind: Option<FlowKind>,
    /// Transport-time constant override.
    pub t_c: Option<Duration>,
    /// Annealing seed override.
    pub seed: Option<u64>,
}

impl FlowDecl {
    /// True when no `flow` statement set anything.
    pub fn is_empty(&self) -> bool {
        self.kind.is_none() && self.t_c.is_none() && self.seed.is_none()
    }
}

/// One `defect` statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectDecl {
    /// `defect block <x> <y>`: the cell is unusable.
    Block {
        /// Cell x.
        x: u32,
        /// Cell y.
        y: u32,
        /// Where the statement starts.
        span: Span,
    },
    /// `defect dead <component-index>`: the component cannot be bound.
    Dead {
        /// Index into the instantiated component set.
        component: u32,
        /// Where the statement starts.
        span: Span,
    },
    /// `defect slow <x> <y> <extra-weight>`: the cell pays extra wash
    /// weight in the router's cost function.
    Slow {
        /// Cell x.
        x: u32,
        /// Cell y.
        y: u32,
        /// Additional Eq. (5) weight (must be at least 1).
        extra_weight: u32,
        /// Where the statement starts.
        span: Span,
    },
}

impl DefectDecl {
    /// Where the statement starts.
    pub fn span(&self) -> Span {
        match *self {
            DefectDecl::Block { span, .. }
            | DefectDecl::Dead { span, .. }
            | DefectDecl::Slow { span, .. } => span,
        }
    }
}

/// A parsed `.assay` document, statement for statement. Produced by
/// [`parse_assay_ast`]; normalized into an [`AssayFile`] by
/// [`AssayAst::lower`]; printed canonically by [`write_assay_ast`].
#[derive(Debug, Clone, PartialEq)]
pub struct AssayAst {
    /// Grammar version (from the `assay-dsl` pragma; defaults to 1).
    pub version: u32,
    /// Display name (empty when the file has no `assay` header).
    pub name: String,
    /// `op` statements, in document order.
    pub ops: Vec<OpDecl>,
    /// `edge` statements, in document order.
    pub edges: Vec<EdgeDecl>,
    /// Merged `flow` constraints.
    pub flow: FlowDecl,
    /// `defect` statements, in document order.
    pub defects: Vec<DefectDecl>,
    /// The `alloc` line, if present.
    pub allocation: Option<Allocation>,
}

/// A parsed and lowered `.assay` file: the normalized form every consumer
/// (CLI, batch manifests, the serve daemon) works with.
#[derive(Debug, Clone, PartialEq)]
pub struct AssayFile {
    /// The bioassay.
    pub graph: SequencingGraph,
    /// The component allocation, if the file declared one.
    pub allocation: Option<Allocation>,
    /// Grammar version the file was written in.
    pub version: u32,
    /// Flow constraints from the file's `flow` statements.
    pub flow: FlowDecl,
    /// Chip defects from the file's `defect` statements.
    pub defects: DefectMap,
}

/// Errors produced while parsing or lowering an `.assay` document. Every
/// variant carries a 1-based line and column.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseError {
    /// A statement could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// 1-based character column.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// An edge referenced an undefined operation name.
    UnknownOp {
        /// 1-based line number.
        line: usize,
        /// 1-based character column.
        column: usize,
        /// The missing name.
        name: String,
    },
    /// The same operation name was defined twice.
    DuplicateOp {
        /// 1-based line number of the re-definition.
        line: usize,
        /// 1-based character column of the re-defined name.
        column: usize,
        /// The re-defined name.
        name: String,
        /// Line of the first definition.
        first_line: usize,
    },
    /// The `assay-dsl` pragma names a version this parser does not read.
    UnsupportedVersion {
        /// 1-based line number.
        line: usize,
        /// 1-based character column.
        column: usize,
        /// The requested version.
        version: u64,
    },
    /// The resulting graph is invalid (cycle, empty).
    Graph {
        /// 1-based line number of the implicated statement.
        line: usize,
        /// 1-based character column.
        column: usize,
        /// The underlying graph error.
        source: GraphError,
    },
}

impl ParseError {
    /// The 1-based line the error points at.
    pub fn line(&self) -> usize {
        match *self {
            ParseError::Syntax { line, .. }
            | ParseError::UnknownOp { line, .. }
            | ParseError::DuplicateOp { line, .. }
            | ParseError::UnsupportedVersion { line, .. }
            | ParseError::Graph { line, .. } => line,
        }
    }

    /// The 1-based character column the error points at.
    pub fn column(&self) -> usize {
        match *self {
            ParseError::Syntax { column, .. }
            | ParseError::UnknownOp { column, .. }
            | ParseError::DuplicateOp { column, .. }
            | ParseError::UnsupportedVersion { column, .. }
            | ParseError::Graph { column, .. } => column,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = Span::new(self.line(), self.column());
        match self {
            ParseError::Syntax { message, .. } => write!(f, "{at}: {message}"),
            ParseError::UnknownOp { name, .. } => {
                write!(f, "{at}: unknown operation `{name}`")
            }
            ParseError::DuplicateOp {
                name, first_line, ..
            } => {
                write!(
                    f,
                    "{at}: operation `{name}` already defined on line {first_line}"
                )
            }
            ParseError::UnsupportedVersion { version, .. } => {
                write!(
                    f,
                    "{at}: unsupported assay-dsl version {version} (this parser reads version {DSL_VERSION})"
                )
            }
            ParseError::Graph { source, .. } => {
                write!(f, "{at}: invalid assay graph: {source}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// True when `s` is a legal op name: starts with a letter or `_`, then
/// letters, digits, `_`, `.` or `-`. The charset excludes `>` so a name
/// can never be confused with the `->` arrow.
pub fn is_valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A cursor over one comment-stripped source line, tracking character
/// columns for error spans.
struct Cursor<'a> {
    line: usize,
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: usize, text: &'a str) -> Self {
        Cursor { line, text, pos: 0 }
    }

    fn col_at(&self, byte: usize) -> usize {
        self.text[..byte].chars().count() + 1
    }

    fn col(&self) -> usize {
        self.col_at(self.pos)
    }

    fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        let trimmed = rest.trim_start();
        self.pos += rest.len() - trimmed.len();
    }

    /// The next whitespace-delimited token and the column it starts at.
    fn next_token(&mut self) -> Option<(&'a str, usize)> {
        self.skip_ws();
        if self.pos >= self.text.len() {
            return None;
        }
        let start = self.pos;
        let rest = &self.text[start..];
        let end = rest
            .find(char::is_whitespace)
            .map_or(self.text.len(), |i| start + i);
        self.pos = end;
        Some((&self.text[start..end], self.col_at(start)))
    }

    fn err(&self, column: usize, message: impl Into<String>) -> ParseError {
        ParseError::Syntax {
            line: self.line,
            column,
            message: message.into(),
        }
    }

    /// Errors unless the rest of the line is blank.
    fn expect_end(&mut self) -> Result<(), ParseError> {
        match self.next_token() {
            None => Ok(()),
            Some((tok, col)) => Err(self.err(col, format!("unexpected trailing token `{tok}`"))),
        }
    }
}

/// Strips a `#` comment, but not inside a double-quoted string.
fn strip_comment(raw: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in raw.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &raw[..i],
            _ => {}
        }
        escaped = false;
    }
    raw
}

/// Parses a finite float with a bounds check, reporting `what` in errors.
fn parse_f64(
    cur: &Cursor<'_>,
    col: usize,
    text: &str,
    what: &str,
    min_exclusive: f64,
    max_inclusive: f64,
) -> Result<f64, ParseError> {
    let v: f64 = text
        .parse()
        .map_err(|e| cur.err(col, format!("bad {what} `{text}`: {e}")))?;
    if !v.is_finite() {
        return Err(cur.err(col, format!("{what} `{text}` must be finite")));
    }
    if v <= min_exclusive || v > max_inclusive {
        return Err(cur.err(
            col,
            format!("{what} `{text}` out of range ({min_exclusive} < value <= {max_inclusive})"),
        ));
    }
    Ok(v)
}

/// Parses a `<secs>s` duration token.
fn parse_secs_token(
    cur: &Cursor<'_>,
    col: usize,
    tok: &str,
    what: &str,
    min_exclusive: f64,
    max_inclusive: f64,
) -> Result<Duration, ParseError> {
    let body = tok
        .strip_suffix('s')
        .ok_or_else(|| cur.err(col, format!("{what} `{tok}` must end in `s`")))?;
    let secs = parse_f64(cur, col, body, what, min_exclusive, max_inclusive)?;
    Ok(Duration::from_secs_f64(secs))
}

fn parse_u32(cur: &Cursor<'_>, col: usize, text: &str, what: &str) -> Result<u32, ParseError> {
    text.parse()
        .map_err(|e| cur.err(col, format!("bad {what} `{text}`: {e}")))
}

/// Parses an assay name after the `assay` keyword: either a quoted string
/// with `\"` / `\\` escapes, or (for compatibility) the bare rest of the
/// line.
fn parse_assay_name(cur: &mut Cursor<'_>) -> Result<String, ParseError> {
    cur.skip_ws();
    let start = cur.pos;
    let rest = &cur.text[start..];
    if rest.is_empty() {
        return Err(cur.err(cur.col(), "expected an assay name after `assay`"));
    }
    if !rest.starts_with('"') {
        // Bare form. A stray quote inside means the author meant to quote.
        if rest.contains('"') {
            return Err(cur.err(
                cur.col_at(start),
                "assay names containing `\"` must be fully quoted",
            ));
        }
        cur.pos = cur.text.len();
        return Ok(rest.trim_end().to_string());
    }
    let mut name = String::new();
    let mut chars = rest.char_indices().skip(1);
    loop {
        match chars.next() {
            None => {
                return Err(cur.err(cur.col_at(start), "unterminated string (missing `\"`)"));
            }
            Some((i, '"')) => {
                cur.pos = start + i + 1;
                cur.expect_end()?;
                return Ok(name);
            }
            Some((i, '\\')) => match chars.next() {
                Some((_, c @ ('"' | '\\'))) => name.push(c),
                Some((j, c)) => {
                    return Err(cur.err(
                        cur.col_at(start + j),
                        format!("unknown escape `\\{c}` (only `\\\"` and `\\\\` are recognized)"),
                    ));
                }
                None => {
                    return Err(
                        cur.err(cur.col_at(start + i), "unterminated escape at end of line")
                    );
                }
            },
            Some((_, c)) => name.push(c),
        }
    }
}

/// Parses `.assay` text into its statement-level AST. Syntax, duplicate
/// names/edges, self-loops, unknown edge endpoints, and version problems
/// are all reported here with line and column; only graph-level validation
/// (cycles) is deferred to [`AssayAst::lower`].
///
/// # Errors
///
/// See [`ParseError`].
pub fn parse_assay_ast(text: &str) -> Result<AssayAst, ParseError> {
    let mut version: Option<u32> = None;
    let mut name: Option<(String, usize)> = None;
    let mut ops: Vec<OpDecl> = Vec::new();
    let mut op_lines: HashMap<String, usize> = HashMap::new();
    let mut edges: Vec<EdgeDecl> = Vec::new();
    let mut edge_cols: Vec<Vec<usize>> = Vec::new();
    let mut edge_pairs: HashMap<(String, String), usize> = HashMap::new();
    let mut flow = FlowDecl::default();
    let mut flow_lines: HashMap<&'static str, usize> = HashMap::new();
    let mut defects: Vec<DefectDecl> = Vec::new();
    let mut allocation: Option<(Allocation, usize)> = None;
    let mut statements = 0usize;
    let mut line_count = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        line_count = idx + 1;
        let line_no = idx + 1;
        let stripped = strip_comment(raw);
        let mut cur = Cursor::new(line_no, stripped);
        let Some((keyword, kw_col)) = cur.next_token() else {
            continue;
        };
        let stmt_span = Span::new(line_no, kw_col);
        match keyword {
            "assay-dsl" => {
                if statements > 0 {
                    return Err(cur.err(
                        kw_col,
                        "the `assay-dsl` version pragma must be the first statement",
                    ));
                }
                if version.is_some() {
                    return Err(cur.err(kw_col, "duplicate `assay-dsl` pragma"));
                }
                let (tok, col) = cur
                    .next_token()
                    .ok_or_else(|| cur.err(cur.col(), "expected a version number"))?;
                let v: u64 = tok
                    .parse()
                    .map_err(|e| cur.err(col, format!("bad version `{tok}`: {e}")))?;
                if v != u64::from(DSL_VERSION) {
                    return Err(ParseError::UnsupportedVersion {
                        line: line_no,
                        column: col,
                        version: v,
                    });
                }
                cur.expect_end()?;
                version = Some(v as u32);
            }
            "assay" => {
                if let Some((_, first)) = name {
                    return Err(cur.err(kw_col, format!("assay name already set on line {first}")));
                }
                let n = parse_assay_name(&mut cur)?;
                name = Some((n, line_no));
            }
            "op" => {
                let decl = parse_op_stmt(&mut cur, stmt_span)?;
                if let Some(&first_line) = op_lines.get(&decl.name) {
                    return Err(ParseError::DuplicateOp {
                        line: line_no,
                        column: decl.span.column,
                        name: decl.name,
                        first_line,
                    });
                }
                op_lines.insert(decl.name.clone(), line_no);
                ops.push(decl);
            }
            "edge" => {
                let (decl, cols) = parse_edge_stmt(&mut cur, stmt_span)?;
                for (k, pair) in decl.chain.windows(2).enumerate() {
                    let key = (pair[0].clone(), pair[1].clone());
                    if let Some(&first) = edge_pairs.get(&key) {
                        return Err(cur.err(
                            cols[k + 1],
                            format!(
                                "duplicate edge `{} -> {}` (first on line {first})",
                                pair[0], pair[1]
                            ),
                        ));
                    }
                    edge_pairs.insert(key, line_no);
                }
                edges.push(decl);
                edge_cols.push(cols);
            }
            "flow" => parse_flow_stmt(&mut cur, &mut flow, &mut flow_lines)?,
            "defect" => defects.push(parse_defect_stmt(&mut cur, stmt_span)?),
            "alloc" => {
                if let Some((_, first)) = allocation {
                    return Err(cur.err(kw_col, format!("allocation already set on line {first}")));
                }
                let mut counts = [0u32; 4];
                for (slot, what) in ["mixer", "heater", "filter", "detector"].iter().enumerate() {
                    let (tok, col) = cur.next_token().ok_or_else(|| {
                        cur.err(
                            cur.col(),
                            "expected `alloc <mixers> <heaters> <filters> <detectors>`",
                        )
                    })?;
                    counts[slot] = parse_u32(&cur, col, tok, &format!("{what} count"))?;
                }
                cur.expect_end()?;
                allocation = Some((
                    Allocation::new(counts[0], counts[1], counts[2], counts[3]),
                    line_no,
                ));
            }
            other => {
                return Err(cur.err(
                    kw_col,
                    format!(
                        "unknown keyword `{other}` (expected assay-dsl, assay, op, edge, flow, defect or alloc)"
                    ),
                ));
            }
        }
        statements += 1;
    }

    if ops.is_empty() {
        return Err(ParseError::Graph {
            line: line_count + 1,
            column: 1,
            source: GraphError::Empty,
        });
    }
    // Edges may reference ops declared later in the file; resolve names now
    // that every `op` has been seen.
    for (decl, cols) in edges.iter().zip(&edge_cols) {
        for (name, &col) in decl.chain.iter().zip(cols) {
            if !op_lines.contains_key(name) {
                return Err(ParseError::UnknownOp {
                    line: decl.span.line,
                    column: col,
                    name: name.clone(),
                });
            }
        }
    }

    Ok(AssayAst {
        version: version.unwrap_or(DSL_VERSION),
        name: name.map(|(n, _)| n).unwrap_or_default(),
        ops,
        edges,
        flow,
        defects,
        allocation: allocation.map(|(a, _)| a),
    })
}

fn parse_op_stmt(cur: &mut Cursor<'_>, span: Span) -> Result<OpDecl, ParseError> {
    let (name, name_col) = cur
        .next_token()
        .ok_or_else(|| cur.err(cur.col(), "expected an operation name after `op`"))?;
    if !is_valid_name(name) {
        return Err(cur.err(
            name_col,
            format!(
                "invalid operation name `{name}` (a letter or `_`, then letters, digits, `_`, `.` or `-`)"
            ),
        ));
    }
    let (kind_tok, kind_col) = cur
        .next_token()
        .ok_or_else(|| cur.err(cur.col(), "expected a kind (mix|heat|filter|detect)"))?;
    let kind = match kind_tok {
        "mix" => OperationKind::Mix,
        "heat" => OperationKind::Heat,
        "filter" => OperationKind::Filter,
        "detect" => OperationKind::Detect,
        other => {
            return Err(cur.err(
                kind_col,
                format!("expected kind mix|heat|filter|detect, got `{other}`"),
            ));
        }
    };
    let (dur_tok, dur_col) = cur
        .next_token()
        .ok_or_else(|| cur.err(cur.col(), "expected a duration (e.g. `5s`)"))?;
    let duration = parse_secs_token(cur, dur_col, dur_tok, "duration", 0.0, MAX_DURATION_SECS)?;
    let (fluid_tok, fluid_col) = cur.next_token().ok_or_else(|| {
        cur.err(
            cur.col(),
            "expected a fluid spec (`wash=<secs>s` or `d=<coefficient>`)",
        )
    })?;
    let fluid = if let Some(v) = fluid_tok.strip_prefix("wash=") {
        // The calibrated model inverts wash times up to its clamp; beyond it
        // no coefficient exists, so the grammar rejects the value here
        // rather than letting the lowering panic.
        let max = LogLinearWash::paper_calibrated().max_wash().as_secs_f64();
        let body = v
            .strip_suffix('s')
            .ok_or_else(|| cur.err(fluid_col, format!("wash value `{v}` must end in `s`")))?;
        let secs = parse_f64(cur, fluid_col, body, "wash time", -f64::EPSILON, max)?;
        FluidSpec::Wash(Duration::from_secs_f64(secs.max(0.0)))
    } else if let Some(v) = fluid_tok.strip_prefix("d=") {
        let d: f64 = v
            .parse()
            .map_err(|e| cur.err(fluid_col, format!("bad coefficient `{v}`: {e}")))?;
        let d = DiffusionCoefficient::new(d)
            .map_err(|e| cur.err(fluid_col, format!("bad coefficient `{v}`: {e}")))?;
        FluidSpec::Diffusion(d)
    } else {
        return Err(cur.err(
            fluid_col,
            format!("expected `wash=<secs>s` or `d=<coefficient>`, got `{fluid_tok}`"),
        ));
    };
    cur.expect_end()?;
    Ok(OpDecl {
        name: name.to_string(),
        kind,
        duration,
        fluid,
        span: Span::new(span.line, name_col),
    })
}

fn parse_edge_stmt(cur: &mut Cursor<'_>, span: Span) -> Result<(EdgeDecl, Vec<usize>), ParseError> {
    let mut chain = Vec::new();
    let mut cols = Vec::new();
    loop {
        let (tok, col) = match cur.next_token() {
            Some(t) => t,
            None if chain.len() >= 2 => break,
            None => {
                return Err(cur.err(cur.col(), "expected `edge a -> b [-> c ...]`"));
            }
        };
        if !chain.is_empty() {
            if tok != "->" {
                return Err(cur.err(col, format!("expected `->` between names, got `{tok}`")));
            }
            let Some((name_tok, name_col)) = cur.next_token() else {
                return Err(cur.err(cur.col(), "expected an operation name after `->`"));
            };
            if !is_valid_name(name_tok) {
                return Err(cur.err(name_col, format!("invalid operation name `{name_tok}`")));
            }
            if name_tok == chain[chain.len() - 1] {
                return Err(cur.err(
                    name_col,
                    format!("edge `{name_tok} -> {name_tok}` is a self-loop"),
                ));
            }
            chain.push(name_tok.to_string());
            cols.push(name_col);
        } else {
            if !is_valid_name(tok) {
                return Err(cur.err(col, format!("invalid operation name `{tok}`")));
            }
            chain.push(tok.to_string());
            cols.push(col);
        }
    }
    Ok((EdgeDecl { chain, span }, cols))
}

fn parse_flow_stmt(
    cur: &mut Cursor<'_>,
    flow: &mut FlowDecl,
    seen: &mut HashMap<&'static str, usize>,
) -> Result<(), ParseError> {
    let line = cur.line;
    let mut any = false;
    let mut set = |key: &'static str, col: usize, cur: &Cursor<'_>| -> Result<(), ParseError> {
        if let Some(&first) = seen.get(key) {
            return Err(cur.err(col, format!("flow `{key}` already set on line {first}")));
        }
        seen.insert(key, line);
        Ok(())
    };
    while let Some((tok, col)) = cur.next_token() {
        any = true;
        if let Some(kind) = FlowKind::parse(tok) {
            set("flow", col, cur)?;
            flow.kind = Some(kind);
            continue;
        }
        match tok {
            _ if tok.starts_with("t_c=") => {
                set("t_c", col, cur)?;
                let v = &tok[4..];
                flow.t_c = Some(parse_secs_token(
                    cur,
                    col,
                    v,
                    "t_c",
                    0.0,
                    MAX_DURATION_SECS,
                )?);
            }
            _ if tok.starts_with("seed=") => {
                set("seed", col, cur)?;
                let v = &tok[5..];
                let seed: u64 = v
                    .parse()
                    .map_err(|e| cur.err(col, format!("bad seed `{v}`: {e}")))?;
                flow.seed = Some(seed);
            }
            other => {
                return Err(cur.err(
                    col,
                    format!(
                        "expected `dcsa`, `baseline`, `t_c=<secs>s` or `seed=<n>`, got `{other}`"
                    ),
                ));
            }
        }
    }
    if !any {
        return Err(cur.err(
            cur.col(),
            "expected `flow [dcsa|baseline] [t_c=<secs>s] [seed=<n>]`",
        ));
    }
    Ok(())
}

fn parse_defect_stmt(cur: &mut Cursor<'_>, span: Span) -> Result<DefectDecl, ParseError> {
    let (sub, sub_col) = cur.next_token().ok_or_else(|| {
        cur.err(
            cur.col(),
            "expected `block <x> <y>`, `dead <component>` or `slow <x> <y> <weight>`",
        )
    })?;
    let mut arg = |what: &str| -> Result<u32, ParseError> {
        let (tok, col) = cur
            .next_token()
            .ok_or_else(|| cur.err(cur.col(), format!("expected {what}")))?;
        parse_u32(cur, col, tok, what)
    };
    let decl = match sub {
        "block" => {
            let x = arg("cell x")?;
            let y = arg("cell y")?;
            DefectDecl::Block { x, y, span }
        }
        "dead" => {
            let component = arg("component index")?;
            DefectDecl::Dead { component, span }
        }
        "slow" => {
            let x = arg("cell x")?;
            let y = arg("cell y")?;
            let extra_weight = arg("extra weight")?;
            if extra_weight == 0 {
                return Err(cur.err(sub_col, "slow-cell extra weight must be at least 1"));
            }
            DefectDecl::Slow {
                x,
                y,
                extra_weight,
                span,
            }
        }
        other => {
            return Err(cur.err(
                sub_col,
                format!("expected `block`, `dead` or `slow`, got `{other}`"),
            ));
        }
    };
    cur.expect_end()?;
    Ok(decl)
}

impl AssayAst {
    /// Normalizes the AST into an [`AssayFile`]: builds the validated
    /// sequencing graph (resolving `wash=` specs through the calibrated
    /// model) and the defect map.
    ///
    /// # Errors
    ///
    /// [`ParseError::Graph`] when the edges form a cycle (anchored to an
    /// edge statement inside the cycle); name-resolution errors when the
    /// AST was constructed by hand rather than parsed.
    pub fn lower(&self) -> Result<AssayFile, ParseError> {
        let wash = LogLinearWash::paper_calibrated();
        let mut builder = SequencingGraph::builder();
        builder.name(&self.name);
        let mut ids: HashMap<&str, OpId> = HashMap::new();
        for op in &self.ops {
            if ids.contains_key(op.name.as_str()) {
                return Err(ParseError::DuplicateOp {
                    line: op.span.line,
                    column: op.span.column,
                    name: op.name.clone(),
                    first_line: op.span.line,
                });
            }
            let id = builder.labelled_operation(
                op.kind,
                op.duration,
                op.fluid.coefficient(&wash),
                op.name.clone(),
            );
            ids.insert(&op.name, id);
        }
        for decl in &self.edges {
            for pair in decl.chain.windows(2) {
                let resolve = |n: &str| {
                    ids.get(n).copied().ok_or_else(|| ParseError::UnknownOp {
                        line: decl.span.line,
                        column: decl.span.column,
                        name: n.to_string(),
                    })
                };
                let (p, c) = (resolve(&pair[0])?, resolve(&pair[1])?);
                builder.edge(p, c).map_err(|source| ParseError::Graph {
                    line: decl.span.line,
                    column: decl.span.column,
                    source,
                })?;
            }
        }
        let graph = builder.build().map_err(|source| {
            let (line, column) = self.anchor_for(&source);
            ParseError::Graph {
                line,
                column,
                source,
            }
        })?;

        let mut defects = DefectMap::pristine();
        for d in &self.defects {
            match *d {
                DefectDecl::Block { x, y, .. } => {
                    defects.block_cell(CellPos::new(x, y));
                }
                DefectDecl::Dead { component, .. } => {
                    defects.kill_component(ComponentId::new(component));
                }
                DefectDecl::Slow {
                    x, y, extra_weight, ..
                } => {
                    defects.penalize_cell(CellPos::new(x, y), extra_weight);
                }
            }
        }

        Ok(AssayFile {
            graph,
            allocation: self.allocation,
            version: self.version,
            flow: self.flow,
            defects,
        })
    }

    /// Picks the statement to blame for a build-time graph error: for a
    /// cycle, the last edge statement whose endpoints are both on the
    /// cycle; otherwise the start of the document.
    fn anchor_for(&self, source: &GraphError) -> (usize, usize) {
        if let GraphError::Cycle(ops) = source {
            let on_cycle: Vec<&str> = ops
                .iter()
                .filter_map(|id| self.ops.get(id.index()).map(|o| o.name.as_str()))
                .collect();
            for decl in self.edges.iter().rev() {
                if decl
                    .chain
                    .windows(2)
                    .any(|p| on_cycle.contains(&p[0].as_str()) && on_cycle.contains(&p[1].as_str()))
                {
                    return (decl.span.line, decl.span.column);
                }
            }
        }
        (1, 1)
    }

    /// Reconstructs an AST from an existing graph (and optional
    /// allocation), for serialization. Labels that are not legal names —
    /// or that collide — fall back to `o<index>` deterministically.
    pub fn from_graph(graph: &SequencingGraph, allocation: Option<Allocation>) -> Self {
        use std::collections::HashSet;
        let mut used: HashSet<String> = HashSet::new();
        let mut names: Vec<String> = Vec::with_capacity(graph.len());
        for op in graph.ops() {
            let label = op.label();
            let mut candidate = if is_valid_name(label) && !used.contains(label) {
                label.to_string()
            } else {
                format!("o{}", op.id().index())
            };
            while used.contains(&candidate) {
                candidate.push('_');
            }
            used.insert(candidate.clone());
            names.push(candidate);
        }
        let ops = graph
            .ops()
            .zip(&names)
            .map(|(op, name)| OpDecl {
                name: name.clone(),
                kind: op.kind(),
                duration: op.duration(),
                fluid: FluidSpec::Diffusion(op.output_diffusion()),
                span: Span::default(),
            })
            .collect();
        let edges = graph
            .edges()
            .map(|(p, c)| EdgeDecl {
                chain: vec![names[p.index()].clone(), names[c.index()].clone()],
                span: Span::default(),
            })
            .collect();
        // Control characters (a newline above all) would break the
        // line-oriented format; spaces are the closest printable stand-in.
        let name = graph
            .name()
            .chars()
            .map(|c| if c.is_control() { ' ' } else { c })
            .collect();
        AssayAst {
            version: DSL_VERSION,
            name,
            ops,
            edges,
            flow: FlowDecl::default(),
            defects: Vec::new(),
            allocation,
        }
    }
}

/// Parses `.assay` text and lowers it ([`parse_assay_ast`] +
/// [`AssayAst::lower`]).
///
/// # Errors
///
/// See [`ParseError`].
pub fn parse_assay(text: &str) -> Result<AssayFile, ParseError> {
    parse_assay_ast(text)?.lower()
}

/// Formats an `f64` in its shortest round-tripping decimal form.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('"');
    for c in name.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes an AST into canonical `.assay` text: version pragma first,
/// aligned `op` columns, one statement per line, sections separated by
/// blank lines. Printing is idempotent (`parse(print(ast))` prints back
/// byte-identically), which is what `mfb fmt` relies on.
pub fn write_assay_ast(ast: &AssayAst) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "assay-dsl {}", ast.version);
    if !ast.name.is_empty() {
        let _ = writeln!(s, "assay {}", escape_name(&ast.name));
    }

    let section = |s: &mut String| {
        if !s.is_empty() {
            s.push('\n');
        }
    };

    if !ast.ops.is_empty() {
        section(&mut s);
        let name_w = ast
            .ops
            .iter()
            .map(|o| o.name.chars().count())
            .max()
            .unwrap_or(0);
        let kind_w = ast
            .ops
            .iter()
            .map(|o| o.kind.name().len())
            .max()
            .unwrap_or(0);
        let durs: Vec<String> = ast
            .ops
            .iter()
            .map(|o| format!("{}s", fmt_f64(o.duration.as_secs_f64())))
            .collect();
        let dur_w = durs.iter().map(String::len).max().unwrap_or(0);
        for (op, dur) in ast.ops.iter().zip(&durs) {
            let fluid = match op.fluid {
                FluidSpec::Wash(t) => format!("wash={}s", fmt_f64(t.as_secs_f64())),
                FluidSpec::Diffusion(d) => format!("d={:e}", d.cm2_per_s()),
            };
            let _ = writeln!(
                s,
                "op {:<name_w$} {:<kind_w$} {:>dur_w$} {}",
                op.name,
                op.kind.name(),
                dur,
                fluid
            );
        }
    }

    if !ast.edges.is_empty() {
        section(&mut s);
        for e in &ast.edges {
            let _ = writeln!(s, "edge {}", e.chain.join(" -> "));
        }
    }

    if !ast.flow.is_empty() || !ast.defects.is_empty() {
        section(&mut s);
        if !ast.flow.is_empty() {
            let mut line = "flow".to_string();
            if let Some(kind) = ast.flow.kind {
                let _ = write!(line, " {}", kind.name());
            }
            if let Some(t_c) = ast.flow.t_c {
                let _ = write!(line, " t_c={}s", fmt_f64(t_c.as_secs_f64()));
            }
            if let Some(seed) = ast.flow.seed {
                let _ = write!(line, " seed={seed}");
            }
            let _ = writeln!(s, "{line}");
        }
        for d in &ast.defects {
            match *d {
                DefectDecl::Block { x, y, .. } => {
                    let _ = writeln!(s, "defect block {x} {y}");
                }
                DefectDecl::Dead { component, .. } => {
                    let _ = writeln!(s, "defect dead {component}");
                }
                DefectDecl::Slow {
                    x, y, extra_weight, ..
                } => {
                    let _ = writeln!(s, "defect slow {x} {y} {extra_weight}");
                }
            }
        }
    }

    if let Some(a) = ast.allocation {
        section(&mut s);
        let _ = writeln!(
            s,
            "alloc {} {} {} {}",
            a.count(crate::component::ComponentKind::Mixer),
            a.count(crate::component::ComponentKind::Heater),
            a.count(crate::component::ComponentKind::Filter),
            a.count(crate::component::ComponentKind::Detector),
        );
    }
    s
}

/// Serializes a graph (and optional allocation) into canonical `.assay`
/// text. Operations are written with `d=` coefficients, so the round trip
/// is model-independent.
pub fn write_assay(graph: &SequencingGraph, allocation: Option<Allocation>) -> String {
    write_assay_ast(&AssayAst::from_graph(graph, allocation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wash::WashModel;

    const SAMPLE: &str = r#"
# three-op chain
assay "demo"
op a mix    5s wash=4s
op b heat   3s d=5e-7
op c detect 4s wash=0.2s
edge a -> b -> c
alloc 1 1 0 1
"#;

    #[test]
    fn parses_sample() {
        let f = parse_assay(SAMPLE).unwrap();
        assert_eq!(f.graph.name(), "demo");
        assert_eq!(f.graph.len(), 3);
        assert_eq!(f.graph.edge_count(), 2);
        assert_eq!(f.allocation, Some(Allocation::new(1, 1, 0, 1)));
        assert_eq!(f.version, DSL_VERSION);
        assert!(f.flow.is_empty());
        assert!(f.defects.is_pristine());
        let wash = LogLinearWash::paper_calibrated();
        let a = f.graph.op(OpId::new(0));
        assert_eq!(a.kind(), OperationKind::Mix);
        assert_eq!(a.duration(), Duration::from_secs(5));
        assert_eq!(wash.wash_time(a.output_diffusion()), Duration::from_secs(4));
        let b = f.graph.op(OpId::new(1));
        assert!((b.output_diffusion().cm2_per_s() - 5e-7).abs() < 1e-20);
    }

    #[test]
    fn parses_version_pragma_and_rejects_unknown_versions() {
        let f = parse_assay("assay-dsl 1\nop a mix 1s wash=1s\n").unwrap();
        assert_eq!(f.version, 1);
        match parse_assay("assay-dsl 2\nop a mix 1s wash=1s\n").unwrap_err() {
            ParseError::UnsupportedVersion { line, version, .. } => {
                assert_eq!(line, 1);
                assert_eq!(version, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The pragma must come first.
        let err = parse_assay("op a mix 1s wash=1s\nassay-dsl 1\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 2, .. }), "{err}");
    }

    #[test]
    fn parses_flow_and_defect_statements() {
        let text = "\
op a mix 1s wash=1s
flow baseline t_c=3s seed=42
defect block 2 3
defect dead 1
defect slow 4 5 2
";
        let f = parse_assay(text).unwrap();
        assert_eq!(f.flow.kind, Some(FlowKind::Baseline));
        assert_eq!(f.flow.t_c, Some(Duration::from_secs(3)));
        assert_eq!(f.flow.seed, Some(42));
        assert!(f.defects.is_blocked(CellPos::new(2, 3)));
        assert!(f.defects.is_dead(ComponentId::new(1)));
        assert_eq!(f.defects.weight_penalty(CellPos::new(4, 5)), 2);
    }

    #[test]
    fn rejects_duplicate_flow_keys_with_position() {
        let text = "op a mix 1s wash=1s\nflow seed=1\nflow seed=2\n";
        match parse_assay(text).unwrap_err() {
            ParseError::Syntax {
                line,
                column,
                message,
            } => {
                assert_eq!(line, 3);
                assert_eq!(column, 6);
                assert!(message.contains("already set on line 2"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn roundtrips_through_writer() {
        let f = parse_assay(SAMPLE).unwrap();
        let text = write_assay(&f.graph, f.allocation);
        let f2 = parse_assay(&text).unwrap();
        assert_eq!(f2.graph.len(), f.graph.len());
        assert_eq!(f2.graph.edge_count(), f.graph.edge_count());
        assert_eq!(f2.allocation, f.allocation);
        for (x, y) in f.graph.ops().zip(f2.graph.ops()) {
            assert_eq!(x.kind(), y.kind());
            assert_eq!(x.duration(), y.duration());
            assert!(
                (x.output_diffusion().cm2_per_s() - y.output_diffusion().cm2_per_s()).abs() < 1e-18
            );
        }
    }

    #[test]
    fn ast_roundtrips_exactly_and_printing_is_idempotent() {
        let text = "\
assay-dsl 1
assay \"full \\\"grammar\\\" demo\"
op a mix 1.5s wash=4s
op b heat 3s d=5e-7
edge a -> b
flow dcsa t_c=2.5s seed=9
defect block 1 2
defect slow 3 4 5
alloc 1 1 0 0
";
        let ast = parse_assay_ast(text).unwrap();
        assert_eq!(ast.name, "full \"grammar\" demo");
        let printed = write_assay_ast(&ast);
        let reparsed = parse_assay_ast(&printed).unwrap();
        // Statement-level equality, spans aside: compare through the printer
        // and the lowering.
        assert_eq!(write_assay_ast(&reparsed), printed);
        assert_eq!(reparsed.lower().unwrap(), ast.lower().unwrap());
    }

    #[test]
    fn reports_unknown_ops_with_line_and_column() {
        let text = "op a mix 5s wash=1s\nedge a -> ghost\n";
        match parse_assay(text).unwrap_err() {
            ParseError::UnknownOp { line, column, name } => {
                assert_eq!(line, 2);
                assert_eq!(column, 11);
                assert_eq!(name, "ghost");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reports_duplicate_ops_with_both_positions() {
        let text = "op a mix 5s wash=1s\nop a mix 4s wash=1s\n";
        match parse_assay(text).unwrap_err() {
            ParseError::DuplicateOp {
                line,
                column,
                first_line,
                ..
            } => {
                assert_eq!(line, 2);
                assert_eq!(column, 4);
                assert_eq!(first_line, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reports_syntax_errors() {
        for bad in [
            "op a mixx 5s wash=1s",
            "op a mix 5 wash=1s",
            "op a mix 5s",
            "op a mix 5s wash=1",
            "op a mix 5s d=-3",
            "op a mix 5s wash=1s extra",
            "op a mix 0s wash=1s",
            "op a mix nans wash=1s",
            "op a mix 5s wash=99s",
            "op 3a mix 5s wash=1s",
            "alloc 1 2 3",
            "frobnicate",
            "edge a ->",
            "edge a b",
            "flow",
            "flow warp=9",
            "defect melt 1 2",
            "defect slow 1 2 0",
        ] {
            let err = parse_assay(bad).unwrap_err();
            assert!(
                matches!(err, ParseError::Syntax { .. }),
                "`{bad}` gave {err:?}"
            );
        }
    }

    #[test]
    fn every_error_carries_a_position() {
        for bad in [
            "op a mix 5s wash=1s\nop a mix 4s wash=1s\n",
            "edge a -> b\n",
            "assay-dsl 99\nop a mix 1s wash=1s\n",
            "op a mix 1s wash=1s\nedge a -> b\nedge b -> a\n",
            "",
            "# only a comment\n",
        ] {
            let err = parse_assay(bad).unwrap_err();
            assert!(err.line() >= 1, "`{bad}` gave line 0: {err:?}");
            assert!(err.column() >= 1, "`{bad}` gave column 0: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains("line"), "{msg}");
            assert!(msg.contains("column"), "{msg}");
        }
    }

    #[test]
    fn detects_cycles_via_graph_error_with_edge_position() {
        let text = "op a mix 1s wash=1s\nop b mix 1s wash=1s\nedge a -> b\nedge b -> a\n";
        match parse_assay(text).unwrap_err() {
            ParseError::Graph { line, source, .. } => {
                assert_eq!(line, 4);
                assert!(matches!(source, GraphError::Cycle(_)));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicate_edges_and_self_loops_at_parse_time() {
        let dup = "op a mix 1s wash=1s\nop b mix 1s wash=1s\nedge a -> b\nedge a -> b\n";
        let err = parse_assay(dup).unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 4, .. }), "{err}");
        let lop = "op a mix 1s wash=1s\nedge a -> a\n";
        let err = parse_assay(lop).unwrap_err();
        assert!(err.to_string().contains("self-loop"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hi\nop a mix 1s wash=1s # trailing\n\n";
        let f = parse_assay(text).unwrap();
        assert_eq!(f.graph.len(), 1);
        assert_eq!(f.allocation, None);
    }

    #[test]
    fn hash_inside_quoted_name_is_not_a_comment() {
        let f = parse_assay("assay \"a#b\"\nop a mix 1s wash=1s\n").unwrap();
        assert_eq!(f.graph.name(), "a#b");
        let printed = write_assay_ast(&AssayAst::from_graph(&f.graph, None));
        let back = parse_assay(&printed).unwrap();
        assert_eq!(back.graph.name(), "a#b");
    }

    #[test]
    fn rejects_duplicate_alloc_and_name_headers() {
        let err = parse_assay("assay \"x\"\nassay \"y\"\nop a mix 1s wash=1s\n").unwrap_err();
        assert!(err.to_string().contains("already set"), "{err}");
        let err = parse_assay("op a mix 1s wash=1s\nalloc 1 0 0 0\nalloc 2 0 0 0\n").unwrap_err();
        assert!(err.to_string().contains("already set"), "{err}");
    }

    #[test]
    fn from_graph_dedupes_colliding_labels() {
        let mut b = SequencingGraph::builder();
        let d = DiffusionCoefficient::PROTEIN;
        b.labelled_operation(OperationKind::Mix, Duration::from_secs(1), d, "same");
        b.labelled_operation(OperationKind::Mix, Duration::from_secs(2), d, "same");
        b.labelled_operation(OperationKind::Mix, Duration::from_secs(3), d, "has space");
        let g = b.build().unwrap();
        let text = write_assay(&g, None);
        let f = parse_assay(&text).unwrap();
        assert_eq!(f.graph.len(), 3);
    }
}
