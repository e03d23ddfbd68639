//! Minimal DIMACS CNF import/export, mainly for debugging and for dumping
//! the equivalence-checking instances produced by the `cec` crate.
//!
//! The parser is strict: the `p cnf` header is mandatory and authoritative
//! (literals above the declared variable count are rejected rather than
//! silently growing the formula), a clause not closed by a terminating `0`
//! is an error, and every failure mode is a distinct [`DimacsError`] variant
//! so callers can react programmatically.

use crate::cnf::ClauseSink;
use crate::{Lit, Solver, Var};

/// The most variables a [`Lit`] can encode: a literal is `2 · var + negated`
/// in a `u32`, and `2 · (MAX_VARS − 1) + 1` is `u32::MAX`.
const MAX_VARS: usize = 1 << 31;

/// Errors produced while parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsError {
    /// No `p cnf <vars> <clauses>` line was found.
    MissingHeader,
    /// A `p` line that is not a well-formed `p cnf <vars> <clauses>` header.
    BadHeader(String),
    /// More than one `p cnf` header line.
    DuplicateHeader,
    /// A header declaring more variables than a [`Lit`] can encode (2³¹).
    TooManyVariables(usize),
    /// A clause token that is not an integer literal.
    BadLiteral(String),
    /// A literal whose variable exceeds the header's variable count.
    LiteralOutOfRange {
        /// The offending DIMACS literal.
        literal: i64,
        /// The variable count declared by the header.
        num_vars: usize,
    },
    /// Clause data before the header, or a final clause missing its
    /// terminating `0`.
    UnterminatedClause,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::MissingHeader => write!(f, "dimacs error: missing 'p cnf' header"),
            DimacsError::BadHeader(line) => {
                write!(f, "dimacs error: bad problem line: {line}")
            }
            DimacsError::DuplicateHeader => {
                write!(f, "dimacs error: duplicate 'p cnf' header")
            }
            DimacsError::TooManyVariables(n) => write!(
                f,
                "dimacs error: {n} variables exceed the {MAX_VARS} a literal can encode"
            ),
            DimacsError::BadLiteral(tok) => write!(f, "dimacs error: bad literal: {tok}"),
            DimacsError::LiteralOutOfRange { literal, num_vars } => write!(
                f,
                "dimacs error: literal {literal} out of range for {num_vars} variable(s)"
            ),
            DimacsError::UnterminatedClause => {
                write!(f, "dimacs error: clause not terminated by 0")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

/// A plain clause database that can be loaded into a [`Solver`] or written
/// out as DIMACS. Also usable as a [`ClauseSink`] encoding target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    /// Number of variables.
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

impl ClauseSink for CnfFormula {
    fn new_var(&mut self) -> Var {
        let var = Var(self.num_vars as u32);
        self.num_vars += 1;
        var
    }
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.clauses.push(lits.to_vec());
        true
    }
}

impl CnfFormula {
    /// Parses DIMACS CNF text.
    ///
    /// # Errors
    /// Returns a [`DimacsError`] on malformed or missing headers, headers
    /// declaring more variables than a [`Lit`] can encode, malformed or
    /// out-of-range literals, and clauses missing their terminating `0`.
    pub fn parse(text: &str) -> Result<Self, DimacsError> {
        let mut num_vars = 0usize;
        let mut clauses = Vec::new();
        let mut current: Vec<Lit> = Vec::new();
        let mut saw_header = false;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('p') {
                if saw_header {
                    return Err(DimacsError::DuplicateHeader);
                }
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 || parts[0] != "cnf" {
                    return Err(DimacsError::BadHeader(line.to_string()));
                }
                num_vars = parts[1]
                    .parse()
                    .map_err(|_| DimacsError::BadHeader(line.to_string()))?;
                if num_vars > MAX_VARS {
                    return Err(DimacsError::TooManyVariables(num_vars));
                }
                parts[2]
                    .parse::<usize>()
                    .map_err(|_| DimacsError::BadHeader(line.to_string()))?;
                saw_header = true;
                continue;
            }
            if !saw_header {
                return Err(DimacsError::MissingHeader);
            }
            for tok in line.split_whitespace() {
                let v: i64 = tok
                    .parse()
                    .map_err(|_| DimacsError::BadLiteral(tok.to_string()))?;
                if v == 0 {
                    clauses.push(std::mem::take(&mut current));
                } else {
                    if v.unsigned_abs() as usize > num_vars {
                        return Err(DimacsError::LiteralOutOfRange {
                            literal: v,
                            num_vars,
                        });
                    }
                    let var = Var((v.unsigned_abs() - 1) as u32);
                    current.push(Lit::new(var, v < 0));
                }
            }
        }
        if !saw_header {
            return Err(DimacsError::MissingHeader);
        }
        if !current.is_empty() {
            return Err(DimacsError::UnterminatedClause);
        }
        Ok(CnfFormula { num_vars, clauses })
    }

    /// Writes the formula as DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        let mut out = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            for lit in clause {
                let v = lit.var().index() as i64 + 1;
                out.push_str(&format!("{} ", if lit.is_neg() { -v } else { v }));
            }
            out.push_str("0\n");
        }
        out
    }

    /// Loads the formula into a fresh solver.
    pub fn to_solver(&self) -> Solver {
        let mut solver = Solver::new();
        self.load_into(&mut solver);
        solver
    }

    /// Loads the formula into any [`ClauseSink`], allocating `num_vars`
    /// fresh variables first.
    pub fn load_into<S: ClauseSink>(&self, sink: &mut S) {
        for _ in 0..self.num_vars {
            sink.new_var();
        }
        for clause in &self.clauses {
            sink.add_clause(clause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    #[test]
    fn parse_and_solve() {
        let text = "c a comment\np cnf 2 2\n1 2 0\n-1 0\n";
        let cnf = CnfFormula::parse(text).unwrap();
        assert_eq!(cnf.num_vars, 2);
        assert_eq!(cnf.clauses.len(), 2);
        let mut solver = cnf.to_solver();
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.value(Lit::pos(Var(1))), Some(true));
    }

    #[test]
    fn roundtrip() {
        let text = "p cnf 3 3\n1 -2 0\n2 3 0\n-3 0\n";
        let cnf = CnfFormula::parse(text).unwrap();
        let cnf2 = CnfFormula::parse(&cnf.to_dimacs()).unwrap();
        assert_eq!(cnf.clauses, cnf2.clauses);
        assert_eq!(cnf.num_vars, cnf2.num_vars);
    }

    #[test]
    fn typed_parse_errors() {
        assert_eq!(CnfFormula::parse("1 2 0"), Err(DimacsError::MissingHeader));
        assert_eq!(CnfFormula::parse(""), Err(DimacsError::MissingHeader));
        assert!(matches!(
            CnfFormula::parse("p cnf x y\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            CnfFormula::parse("p dnf 2 1\n1 2 0\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            CnfFormula::parse("p cnf 2 1\n1 z 0\n"),
            Err(DimacsError::BadLiteral(_))
        ));
        assert_eq!(
            CnfFormula::parse("p cnf 2 1\np cnf 2 1\n1 0\n"),
            Err(DimacsError::DuplicateHeader)
        );
        assert_eq!(
            CnfFormula::parse("p cnf 2 1\n1 3 0\n"),
            Err(DimacsError::LiteralOutOfRange {
                literal: 3,
                num_vars: 2
            })
        );
        assert_eq!(
            CnfFormula::parse("p cnf 2 1\n1 -2\n"),
            Err(DimacsError::UnterminatedClause)
        );
    }

    #[test]
    fn formula_as_clause_sink_roundtrips_through_solver() {
        let mut cnf = CnfFormula::default();
        let a = Lit::pos(ClauseSink::new_var(&mut cnf));
        let b = Lit::pos(ClauseSink::new_var(&mut cnf));
        ClauseSink::add_clause(&mut cnf, &[a, b]);
        ClauseSink::add_clause(&mut cnf, &[!a]);
        assert_eq!(cnf.to_solver().solve(), SatResult::Sat);
    }
}
