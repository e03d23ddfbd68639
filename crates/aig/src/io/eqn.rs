//! ABC-style equation (`.eqn`) reader and writer.
//!
//! The equation format is a list of Boolean assignments:
//!
//! ```text
//! INORDER = a b cin;
//! OUTORDER = sum cout;
//! w1 = a ^ b;
//! sum = w1 ^ cin;
//! cout = (a * b) + (cin * w1);
//! ```
//!
//! Supported operators (loosest to tightest binding): `+` (OR), `^` (XOR),
//! `*` (AND), `!` (NOT), plus parentheses and the constants `0`/`1`.
//! This is the text format E-morphic uses when exchanging circuits with the
//! conventional synthesis flow (paper Fig. 5, step "Equation Format").

use crate::{Aig, AigError, Lit, Result};
use fxhash::FxHashMap;

/// Serializes an AIG as a list of equations (one per AND gate).
pub fn write_eqn(aig: &Aig) -> String {
    let mut out = String::new();
    out.push_str("INORDER = ");
    out.push_str(&aig.input_names().join(" "));
    out.push_str(";\n");
    out.push_str("OUTORDER = ");
    out.push_str(&aig.output_names().join(" "));
    out.push_str(";\n");

    let name_of = |lit: Lit, aig: &Aig| -> String {
        let base = if lit.node() == crate::NodeId::CONST {
            // Complemented constant-false is constant-true.
            return if lit.is_complemented() {
                "1".into()
            } else {
                "0".into()
            };
        } else {
            match aig.node(lit.node()) {
                crate::AigNode::Input { index } => aig.input_name(*index as usize).to_string(),
                _ => format!("new_n{}", lit.node().0),
            }
        };
        if lit.is_complemented() {
            format!("!{base}")
        } else {
            base
        }
    };

    for id in aig.and_ids() {
        let (f0, f1) = aig.fanins(id);
        out.push_str(&format!(
            "new_n{} = {} * {};\n",
            id.0,
            name_of(f0, aig),
            name_of(f1, aig)
        ));
    }
    for (i, &po) in aig.outputs().iter().enumerate() {
        out.push_str(&format!("{} = {};\n", aig.output_name(i), name_of(po, aig)));
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Const(bool),
    Not,
    And,
    Or,
    Xor,
    LParen,
    RParen,
}

fn tokenize(expr: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = expr.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '!' => {
                chars.next();
                tokens.push(Token::Not);
            }
            '*' | '&' => {
                chars.next();
                tokens.push(Token::And);
            }
            '+' | '|' => {
                chars.next();
                tokens.push(Token::Or);
            }
            '^' => {
                chars.next();
                tokens.push(Token::Xor);
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            c if c.is_alphanumeric() || c == '_' || c == '[' || c == ']' || c == '.' => {
                let mut ident = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '[' || c == ']' || c == '.' {
                        ident.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if ident == "0" {
                    tokens.push(Token::Const(false));
                } else if ident == "1" {
                    tokens.push(Token::Const(true));
                } else {
                    tokens.push(Token::Ident(ident));
                }
            }
            other => {
                return Err(AigError::Parse(format!(
                    "unexpected character '{other}' in expression '{expr}'"
                )))
            }
        }
    }
    Ok(tokens)
}

/// Binding strength of a binary operator, loosest first; 0 for anything else.
fn precedence(token: &Token) -> u8 {
    match token {
        Token::Or => 1,
        Token::Xor => 2,
        Token::And => 3,
        _ => 0,
    }
}

/// Applies the pending binary operators that bind at least as tightly as
/// `min`, most recent first, stopping at an open parenthesis.
fn reduce(pending: &mut Vec<Token>, operands: &mut Vec<Lit>, aig: &mut Aig, min: u8) {
    while pending.last().map_or(0, precedence) >= min {
        let (Some(op), Some(rhs), Some(lhs)) = (pending.pop(), operands.pop(), operands.pop())
        else {
            return;
        };
        operands.push(match op {
            Token::Or => aig.or(lhs, rhs),
            Token::Xor => aig.xor(lhs, rhs),
            _ => aig.and(lhs, rhs),
        });
    }
}

/// Parses one right-hand side:
///
/// ```text
/// expr     := xor_term ('+' xor_term)*
/// xor_term := term ('^' term)*
/// term     := factor ('*' factor)*
/// factor   := '!' factor | '(' expr ')' | ident | const
/// ```
///
/// An operator-precedence parse over two explicit stacks, so that nesting —
/// any run of `(` or `!` a file cares to contain — costs heap, not call stack.
/// An operator is applied as soon as its right operand is complete, left to
/// right: the order a recursive descent over the grammar builds gates in.
fn parse_expr(tokens: Vec<Token>, aig: &mut Aig, env: &FxHashMap<String, Lit>) -> Result<Lit> {
    // Operators and open parentheses still waiting for their right side, and
    // the finished operands they will take.
    let mut pending: Vec<Token> = Vec::new();
    let mut operands: Vec<Lit> = Vec::new();
    let mut want_operand = true;
    for token in tokens {
        let mut operand = match (want_operand, token) {
            (true, token @ (Token::Not | Token::LParen)) => {
                pending.push(token);
                continue;
            }
            (true, Token::Const(value)) => Lit::FALSE.xor(value),
            (true, Token::Ident(name)) => *env
                .get(&name)
                .ok_or_else(|| AigError::Parse(format!("undefined signal '{name}'")))?,
            (false, token @ (Token::And | Token::Or | Token::Xor)) => {
                reduce(&mut pending, &mut operands, aig, precedence(&token));
                pending.push(token);
                want_operand = true;
                continue;
            }
            (false, Token::RParen) => {
                reduce(&mut pending, &mut operands, aig, 1);
                match (pending.pop(), operands.pop()) {
                    (Some(Token::LParen), Some(inner)) => inner,
                    _ => return Err(AigError::Parse("unmatched closing parenthesis".into())),
                }
            }
            (_, other) => return Err(AigError::Parse(format!("unexpected token {other:?}"))),
        };
        // A finished factor takes the `!`s written in front of it.
        while pending.last() == Some(&Token::Not) {
            pending.pop();
            operand = operand.not();
        }
        operands.push(operand);
        want_operand = false;
    }
    if want_operand {
        return Err(AigError::Parse(
            "expression ends where an operand is expected".into(),
        ));
    }
    reduce(&mut pending, &mut operands, aig, 1);
    match (pending.is_empty(), operands.pop()) {
        (true, Some(lit)) => Ok(lit),
        _ => Err(AigError::Parse("missing closing parenthesis".into())),
    }
}

/// Parses an equation file into an [`Aig`].
///
/// Signals assigned before use become internal wires; identifiers listed in
/// `INORDER` become primary inputs; identifiers listed in `OUTORDER` become
/// primary outputs (in that order).
///
/// # Errors
/// Returns [`AigError::Parse`] for syntax errors, undefined signals, or
/// missing `INORDER`/`OUTORDER` declarations.
pub fn read_eqn(text: &str) -> Result<Aig> {
    let mut aig = Aig::new("eqn");
    let mut env: FxHashMap<String, Lit> = FxHashMap::default();
    let mut outputs: Vec<String> = Vec::new();
    let mut saw_inorder = false;
    let mut saw_outorder = false;

    // Statements are ';'-separated; comments start with '#'.
    let cleaned: String = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");

    for stmt in cleaned.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let (lhs, rhs) = stmt
            .split_once('=')
            .ok_or_else(|| AigError::Parse(format!("statement without '=': {stmt}")))?;
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        match lhs {
            "INORDER" => {
                if saw_inorder {
                    return Err(AigError::Duplicate(
                        "INORDER declared more than once".into(),
                    ));
                }
                saw_inorder = true;
                for name in rhs.split_whitespace() {
                    if env.contains_key(name) {
                        return Err(AigError::Duplicate(format!(
                            "input '{name}' listed more than once in INORDER"
                        )));
                    }
                    let lit = aig.add_input(name);
                    env.insert(name.to_string(), lit);
                }
            }
            "OUTORDER" => {
                if saw_outorder {
                    return Err(AigError::Duplicate(
                        "OUTORDER declared more than once".into(),
                    ));
                }
                saw_outorder = true;
                outputs = rhs.split_whitespace().map(|s| s.to_string()).collect();
                for (i, name) in outputs.iter().enumerate() {
                    if outputs[..i].contains(name) {
                        return Err(AigError::Duplicate(format!(
                            "output '{name}' listed more than once in OUTORDER"
                        )));
                    }
                }
            }
            name => {
                let lit = parse_expr(tokenize(rhs)?, &mut aig, &env)?;
                // Reassigning a signal (or shadowing an input) used to be
                // accepted silently, with the last assignment winning.
                if env.insert(name.to_string(), lit).is_some() {
                    return Err(AigError::Duplicate(format!(
                        "signal '{name}' is assigned more than once"
                    )));
                }
            }
        }
    }

    if !saw_inorder || !saw_outorder {
        return Err(AigError::Parse(
            "equation file must declare INORDER and OUTORDER".into(),
        ));
    }
    for name in &outputs {
        let lit = env
            .get(name)
            .copied()
            .ok_or_else(|| AigError::Parse(format!("output '{name}' never assigned")))?;
        aig.add_output(lit, name.clone());
    }
    Ok(aig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_adder() {
        let text = "\
INORDER = a b cin;
OUTORDER = sum cout;
w1 = a ^ b;
sum = w1 ^ cin;
cout = (a * b) + (cin * w1);
";
        let aig = read_eqn(text).unwrap();
        assert_eq!(aig.num_inputs(), 3);
        assert_eq!(aig.num_outputs(), 2);
        for p in 0..8u32 {
            let a = p & 1 != 0;
            let b = p & 2 != 0;
            let cin = p & 4 != 0;
            let out = aig.evaluate(&[a, b, cin]);
            let total = u32::from(a) + u32::from(b) + u32::from(cin);
            assert_eq!(out[0], total & 1 == 1, "sum at {p}");
            assert_eq!(out[1], total >= 2, "carry at {p}");
        }
    }

    #[test]
    fn roundtrip_write_then_read() {
        let mut aig = Aig::new("rt");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let f = aig.mux(a, b, c);
        aig.add_output(f, "f");
        aig.add_output(f.not(), "nf");
        let text = write_eqn(&aig);
        let back = read_eqn(&text).unwrap();
        for p in 0..8u32 {
            let bits = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits));
        }
    }

    #[test]
    fn operator_precedence() {
        // a + b * c must parse as a + (b * c).
        let text = "INORDER = a b c;\nOUTORDER = f;\nf = a + b * c;\n";
        let aig = read_eqn(text).unwrap();
        assert_eq!(aig.evaluate(&[true, false, false]), vec![true]);
        assert_eq!(aig.evaluate(&[false, true, false]), vec![false]);
        assert_eq!(aig.evaluate(&[false, true, true]), vec![true]);
    }

    #[test]
    fn not_binds_tightest() {
        let text = "INORDER = a b;\nOUTORDER = f;\nf = !a * b;\n";
        let aig = read_eqn(text).unwrap();
        assert_eq!(aig.evaluate(&[false, true]), vec![true]);
        assert_eq!(aig.evaluate(&[true, true]), vec![false]);
    }

    #[test]
    fn constants_in_expressions() {
        let text = "INORDER = a;\nOUTORDER = f g;\nf = a * 1;\ng = a + 0;\n";
        let aig = read_eqn(text).unwrap();
        assert_eq!(aig.evaluate(&[true]), vec![true, true]);
        assert_eq!(aig.evaluate(&[false]), vec![false, false]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# full comment\nINORDER = a; # trailing\nOUTORDER = f;\n\nf = !a;\n";
        let aig = read_eqn(text).unwrap();
        assert_eq!(aig.evaluate(&[false]), vec![true]);
    }

    #[test]
    fn error_on_undefined_signal() {
        let text = "INORDER = a;\nOUTORDER = f;\nf = a * ghost;\n";
        assert!(matches!(read_eqn(text), Err(AigError::Parse(_))));
    }

    #[test]
    fn error_on_missing_orders() {
        assert!(read_eqn("f = a;").is_err());
        let text = "INORDER = a;\nf = a;\n";
        assert!(read_eqn(text).is_err());
    }

    #[test]
    fn error_on_duplicate_outputs() {
        let text = "INORDER = a b;\nOUTORDER = f f;\nf = a * b;\n";
        assert!(matches!(read_eqn(text), Err(AigError::Duplicate(_))));
        let twice = "INORDER = a;\nOUTORDER = f;\nOUTORDER = f;\nf = a;\n";
        assert!(matches!(read_eqn(twice), Err(AigError::Duplicate(_))));
    }

    #[test]
    fn error_on_reassigned_signal() {
        // The second assignment used to win silently.
        let text = "INORDER = a b;\nOUTORDER = f;\nf = a;\nf = b;\n";
        assert!(matches!(read_eqn(text), Err(AigError::Duplicate(_))));
        // Shadowing an input is a duplicate too.
        let shadow = "INORDER = a b;\nOUTORDER = f;\na = b;\nf = a;\n";
        assert!(matches!(read_eqn(shadow), Err(AigError::Duplicate(_))));
    }

    #[test]
    fn error_on_duplicate_declarations() {
        let text = "INORDER = a;\nINORDER = b;\nOUTORDER = f;\nf = a;\n";
        assert!(matches!(read_eqn(text), Err(AigError::Duplicate(_))));
        let dup_input = "INORDER = a a;\nOUTORDER = f;\nf = a;\n";
        assert!(matches!(read_eqn(dup_input), Err(AigError::Duplicate(_))));
    }

    /// Runs `f` on a 2 MiB stack, the size a pool worker or a test thread
    /// parses a submitted file on.
    fn on_a_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(f);
        thread.unwrap().join().unwrap()
    }

    #[test]
    fn nesting_depth_is_not_bounded_by_the_stack() {
        // One call frame per `(` or `!` aborted the process on a 2 MiB stack
        // (release; far earlier in debug).
        const DEPTH: usize = 200_000;
        for (open, close) in [("(", ")"), ("!", ""), ("!(", ")")] {
            let text = format!(
                "INORDER = a b;\nOUTORDER = f;\nf = {}a * b{};\n",
                open.repeat(DEPTH),
                close.repeat(DEPTH)
            );
            let aig = on_a_small_stack(move || read_eqn(&text)).unwrap();
            // An even number of `!`s cancels; without parentheses they bind
            // to `a` alone, which makes no difference at an even count.
            assert_eq!(aig.evaluate(&[true, true]), vec![true], "{open}");
            assert_eq!(aig.evaluate(&[true, false]), vec![false], "{open}");
        }
        let unclosed = format!("INORDER = a;\nOUTORDER = f;\nf = {}a;\n", "(".repeat(DEPTH));
        assert!(on_a_small_stack(move || read_eqn(&unclosed)).is_err());
    }

    #[test]
    fn precedence_and_grouping_match_the_grammar() {
        // Every operator pair, both orders, against the grouping the grammar
        // gives it; parentheses and `!` override and bind as written.
        type Spec = fn(bool, bool, bool) -> bool;
        let cases: [(&str, Spec); 10] = [
            ("a + b ^ c", |a, b, c| a | (b ^ c)),
            ("a ^ b + c", |a, b, c| (a ^ b) | c),
            ("a ^ b * c", |a, b, c| a ^ (b & c)),
            ("a * b ^ c", |a, b, c| (a & b) ^ c),
            ("a * b + c * a", |a, b, c| (a & b) | (c & a)),
            ("a ^ b ^ c * !a", |a, b, c| a ^ b ^ (c & !a)),
            ("(a + b) * c", |a, b, c| (a | b) & c),
            ("!(a + b) * !!c", |a, b, c| !(a | b) & c),
            ("!a ^ !(b * (c + a))", |a, b, c| !a ^ !(b & (c | a))),
            ("((a)) + (!(b)) * c", |a, b, c| a | (!b & c)),
        ];
        for (expr, expected) in cases {
            let text = format!("INORDER = a b c;\nOUTORDER = f;\nf = {expr};\n");
            let aig = read_eqn(&text).unwrap();
            for p in 0..8u32 {
                let (a, b, c) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
                assert_eq!(
                    aig.evaluate(&[a, b, c]),
                    vec![expected(a, b, c)],
                    "{expr} at {p}"
                );
            }
        }
    }

    #[test]
    fn error_on_bad_syntax() {
        let text = "INORDER = a b;\nOUTORDER = f;\nf = (a * b;\n";
        assert!(read_eqn(text).is_err());
        let text2 = "INORDER = a b;\nOUTORDER = f;\nf = a ** b;\n";
        assert!(read_eqn(text2).is_err());
        for rhs in [
            "a b", "a )", "( )", "a * ", "", "!", "a ! b", "(a * b))", "a + * b",
        ] {
            let text = format!("INORDER = a b;\nOUTORDER = f;\nf = {rhs};\n");
            assert!(matches!(read_eqn(&text), Err(AigError::Parse(_))), "{rhs}");
        }
    }
}
