//! The Boolean term language used inside E-morphic's e-graphs.

use choices::{BoolExpr, BoolNode};
use egraph::{FromOp, Id, Language, ParseError};

/// A Boolean operator node.
///
/// The language mirrors the equation format the flows exchange with the
/// conventional synthesis passes: constants, primary-input variables,
/// negation, conjunction and disjunction. (XOR and richer operators are
/// expressible as trees over these and are discovered by rewriting.)
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BoolLang {
    /// A Boolean constant.
    Const(bool),
    /// A primary input, identified by its index in the source circuit.
    Var(u32),
    /// Logical negation.
    Not(Id),
    /// Conjunction.
    And([Id; 2]),
    /// Disjunction.
    Or([Id; 2]),
}

impl BoolLang {
    /// Convenience constructor for an AND node.
    pub fn and(a: Id, b: Id) -> Self {
        BoolLang::And([a, b])
    }

    /// Convenience constructor for an OR node.
    pub fn or(a: Id, b: Id) -> Self {
        BoolLang::Or([a, b])
    }

    /// Returns `true` for leaf nodes (constants and variables).
    pub fn is_leaf_node(&self) -> bool {
        matches!(self, BoolLang::Const(_) | BoolLang::Var(_))
    }
}

impl Language for BoolLang {
    fn children(&self) -> &[Id] {
        match self {
            BoolLang::Const(_) | BoolLang::Var(_) => &[],
            BoolLang::Not(child) => std::slice::from_ref(child),
            BoolLang::And(children) | BoolLang::Or(children) => children,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            BoolLang::Const(_) | BoolLang::Var(_) => &mut [],
            BoolLang::Not(child) => std::slice::from_mut(child),
            BoolLang::And(children) | BoolLang::Or(children) => children,
        }
    }

    fn matches(&self, other: &Self) -> bool {
        match (self, other) {
            (BoolLang::Const(a), BoolLang::Const(b)) => a == b,
            (BoolLang::Var(a), BoolLang::Var(b)) => a == b,
            (BoolLang::Not(_), BoolLang::Not(_)) => true,
            (BoolLang::And(_), BoolLang::And(_)) => true,
            (BoolLang::Or(_), BoolLang::Or(_)) => true,
            _ => false,
        }
    }

    fn op_str(&self) -> String {
        match self {
            BoolLang::Const(false) => "false".to_string(),
            BoolLang::Const(true) => "true".to_string(),
            BoolLang::Var(index) => format!("x{index}"),
            BoolLang::Not(_) => "!".to_string(),
            BoolLang::And(_) => "&".to_string(),
            BoolLang::Or(_) => "|".to_string(),
        }
    }

    fn op_key(&self) -> u64 {
        // Allocation-free discriminator for the e-graph's operator index.
        // `matches` distinguishes constants by value and variables by index,
        // so the key must too; the ranges below cannot collide.
        match self {
            BoolLang::Not(_) => 1,
            BoolLang::And(_) => 2,
            BoolLang::Or(_) => 3,
            BoolLang::Const(b) => 0x10 | u64::from(*b),
            BoolLang::Var(index) => 0x100 + u64::from(*index),
        }
    }
}

impl BoolNode for BoolLang {
    fn as_bool(&self) -> Option<BoolExpr> {
        Some(match *self {
            BoolLang::Const(b) => BoolExpr::Const(b),
            BoolLang::Var(i) => BoolExpr::Var(i),
            BoolLang::Not(c) => BoolExpr::Not(c),
            BoolLang::And([a, b]) => BoolExpr::And(a, b),
            BoolLang::Or([a, b]) => BoolExpr::Or(a, b),
        })
    }
}

impl FromOp for BoolLang {
    fn from_op(op: &str, children: Vec<Id>) -> Result<Self, ParseError> {
        let arity = |expected: usize| -> Result<(), ParseError> {
            if children.len() == expected {
                Ok(())
            } else {
                Err(ParseError(format!(
                    "operator '{op}' expects {expected} children, got {}",
                    children.len()
                )))
            }
        };
        match op {
            "&" | "*" | "and" | "AND" => {
                arity(2)?;
                Ok(BoolLang::And([children[0], children[1]]))
            }
            "|" | "+" | "or" | "OR" => {
                arity(2)?;
                Ok(BoolLang::Or([children[0], children[1]]))
            }
            "!" | "~" | "not" | "NOT" => {
                arity(1)?;
                Ok(BoolLang::Not(children[0]))
            }
            "true" | "1" => {
                arity(0)?;
                Ok(BoolLang::Const(true))
            }
            "false" | "0" => {
                arity(0)?;
                Ok(BoolLang::Const(false))
            }
            var if var.starts_with('x')
                && var[1..].chars().all(|c| c.is_ascii_digit())
                && var.len() > 1 =>
            {
                arity(0)?;
                Ok(BoolLang::Var(var[1..].parse().map_err(|_| {
                    ParseError(format!("bad variable index in '{var}'"))
                })?))
            }
            other => Err(ParseError(format!("unknown Boolean operator '{other}'"))),
        }
    }
}

/// Evaluates a `RecExpr` over the Boolean language on a variable assignment
/// (`inputs[i]` is the value of `Var(i)`): the rule tests' semantic oracle.
#[cfg(test)]
pub(crate) fn eval_expr(expr: &egraph::RecExpr<BoolLang>, inputs: &[bool]) -> bool {
    let mut values: Vec<bool> = Vec::with_capacity(expr.len());
    for node in expr.as_ref() {
        let value = match node {
            BoolLang::Const(b) => *b,
            BoolLang::Var(i) => inputs[*i as usize],
            BoolLang::Not(c) => !values[c.index()],
            BoolLang::And([a, b]) => values[a.index()] && values[b.index()],
            BoolLang::Or([a, b]) => values[a.index()] || values[b.index()],
        };
        values.push(value);
    }
    *values
        .last()
        .unwrap_or_else(|| unreachable!("non-empty expression"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph::RecExpr;

    #[test]
    fn parse_and_print() {
        let expr: RecExpr<BoolLang> = "(| (& x0 x1) (! x2))".parse().unwrap();
        assert_eq!(expr.to_string(), "(| (& x0 x1) (! x2))");
        assert_eq!(expr.len(), 6);
    }

    #[test]
    fn parse_alternative_spellings() {
        let a: RecExpr<BoolLang> = "(+ (* x0 x1) (~ x2))".parse().unwrap();
        let b: RecExpr<BoolLang> = "(or (and x0 x1) (not x2))".parse().unwrap();
        assert_eq!(a.as_ref(), b.as_ref());
        let consts: RecExpr<BoolLang> = "(& 1 0)".parse().unwrap();
        assert!(!eval_expr(&consts, &[]));
    }

    #[test]
    fn parse_errors() {
        assert!("(& x0)".parse::<RecExpr<BoolLang>>().is_err());
        assert!("(! x0 x1)".parse::<RecExpr<BoolLang>>().is_err());
        assert!("(foo x0 x1)".parse::<RecExpr<BoolLang>>().is_err());
        assert!("xabc".parse::<RecExpr<BoolLang>>().is_err());
    }

    #[test]
    fn evaluation_matches_semantics() {
        let expr: RecExpr<BoolLang> = "(| (& x0 x1) (! x2))".parse().unwrap();
        for p in 0..8usize {
            let bits = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            let expected = (bits[0] && bits[1]) || !bits[2];
            assert_eq!(eval_expr(&expr, &bits), expected, "pattern {p}");
        }
    }

    #[test]
    fn matches_distinguishes_leaf_identity() {
        use egraph::Language;
        assert!(BoolLang::Var(3).matches(&BoolLang::Var(3)));
        assert!(!BoolLang::Var(3).matches(&BoolLang::Var(4)));
        assert!(!BoolLang::Const(true).matches(&BoolLang::Const(false)));
        assert!(BoolLang::and(Id(0), Id(1)).matches(&BoolLang::and(Id(5), Id(6))));
        assert!(!BoolLang::and(Id(0), Id(1)).matches(&BoolLang::or(Id(0), Id(1))));
    }

    #[test]
    fn leaf_detection() {
        assert!(BoolLang::Const(true).is_leaf_node());
        assert!(BoolLang::Var(0).is_leaf_node());
        assert!(!BoolLang::Not(Id(0)).is_leaf_node());
    }
}
