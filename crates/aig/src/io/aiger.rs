//! ASCII AIGER (`.aag`) reader and writer for combinational networks.
//!
//! Only the combinational subset is supported; files containing latches are
//! rejected with [`AigError::Unsupported`].

use crate::{Aig, AigError, AigNode, FxHashMap, Lit, NodeId, Result};

/// Serializes a combinational AIG into the ASCII AIGER format.
///
/// Node indices are renumbered into the canonical AIGER layout
/// (inputs first, then AND gates in topological order) and a symbol table
/// with the input/output names is emitted.
pub fn write_aiger(aig: &Aig) -> String {
    // Assign AIGER variable indices: inputs then ANDs (topological order).
    let mut var_of = vec![0u32; aig.num_nodes()];
    let mut next_var = 1u32;
    for &input in aig.inputs() {
        var_of[input.index()] = next_var;
        next_var += 1;
    }
    let and_ids: Vec<NodeId> = aig.and_ids().collect();
    for &id in &and_ids {
        var_of[id.index()] = next_var;
        next_var += 1;
    }
    let lit_of = |lit: Lit| -> u32 {
        if lit.node() == NodeId::CONST {
            return lit.raw();
        }
        var_of[lit.node().index()] * 2 + u32::from(lit.is_complemented())
    };

    let max_var = next_var - 1;
    let mut out = String::new();
    out.push_str(&format!(
        "aag {} {} 0 {} {}\n",
        max_var,
        aig.num_inputs(),
        aig.num_outputs(),
        and_ids.len()
    ));
    for &input in aig.inputs() {
        out.push_str(&format!("{}\n", var_of[input.index()] * 2));
    }
    for &po in aig.outputs() {
        out.push_str(&format!("{}\n", lit_of(po)));
    }
    for &id in &and_ids {
        let (f0, f1) = aig.fanins(id);
        // AIGER requires rhs0 >= rhs1.
        let (mut a, mut b) = (lit_of(f0), lit_of(f1));
        if a < b {
            std::mem::swap(&mut a, &mut b);
        }
        out.push_str(&format!("{} {} {}\n", var_of[id.index()] * 2, a, b));
    }
    for (i, name) in aig.input_names().iter().enumerate() {
        out.push_str(&format!("i{i} {name}\n"));
    }
    for (i, name) in aig.output_names().iter().enumerate() {
        out.push_str(&format!("o{i} {name}\n"));
    }
    out.push_str("c\n");
    out.push_str(&format!("{}\n", aig.name()));
    out
}

/// Parses an ASCII AIGER (`.aag`) file into an [`Aig`].
///
/// # Errors
/// Returns [`AigError::Parse`] for malformed input and
/// [`AigError::Unsupported`] if the file declares latches.
pub fn read_aiger(text: &str) -> Result<Aig> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| AigError::Parse("empty AIGER file".into()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.first() == Some(&"aag") && fields.len() < 6 {
        return Err(AigError::Parse(format!(
            "truncated AIGER header (expected 'aag M I L O A', got {} field(s)): {header}",
            fields.len()
        )));
    }
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(AigError::Parse(format!("bad AIGER header: {header}")));
    }
    let parse_num = |s: &str| -> Result<u32> {
        s.parse::<u32>()
            .map_err(|_| AigError::Parse(format!("bad number '{s}' in header")))
    };
    let max_var = parse_num(fields[1])?;
    let num_inputs = parse_num(fields[2])?;
    let num_latches = parse_num(fields[3])?;
    let num_outputs = parse_num(fields[4])?;
    let num_ands = parse_num(fields[5])?;
    if num_latches != 0 {
        return Err(AigError::Unsupported(
            "sequential AIGER files (latches) are not supported".into(),
        ));
    }

    // The counts are whatever the file says: hold them against the lines
    // that are there before anything is sized by them.
    let body: Vec<&str> = lines.collect();
    let declared = u64::from(num_inputs) + u64::from(num_outputs) + u64::from(num_ands);
    if declared > body.len() as u64 {
        return Err(AigError::Parse(format!(
            "header declares {declared} input, output and AND lines, {} follow",
            body.len()
        )));
    }
    let (input_lines, rest) = body.split_at(num_inputs as usize);
    let (output_lines, rest) = rest.split_at(num_outputs as usize);
    let (and_lines, symbol_lines) = rest.split_at(num_ands as usize);

    let mut aig = Aig::new("aiger");
    // Map from AIGER variable index to literal in the new AIG, one entry per
    // definition read: `max_var` bounds the indices, it sizes nothing.
    let mut lit_map: FxHashMap<u32, Lit> = FxHashMap::default();
    lit_map.insert(0, Lit::FALSE);

    for (i, line) in input_lines.iter().enumerate() {
        let raw = parse_num(line.trim())?;
        if raw % 2 != 0 {
            return Err(AigError::Parse(format!(
                "input literal {raw} is complemented"
            )));
        }
        let lit = aig.add_input(format!("i{i}"));
        let var = raw / 2;
        if var > max_var {
            return Err(AigError::OutOfRange(format!(
                "input variable {var} exceeds max {max_var}"
            )));
        }
        if lit_map.insert(var, lit).is_some() {
            return Err(AigError::Duplicate(format!(
                "input variable {var} is already defined"
            )));
        }
    }

    let mut output_raws = Vec::with_capacity(output_lines.len());
    for line in output_lines {
        output_raws.push(parse_num(line.trim())?);
    }

    let mut and_defs = Vec::with_capacity(and_lines.len());
    for line in and_lines {
        let nums: Vec<&str> = line.split_whitespace().collect();
        if nums.len() != 3 {
            return Err(AigError::Parse(format!("bad AND line: {line}")));
        }
        let lhs = parse_num(nums[0])?;
        let rhs0 = parse_num(nums[1])?;
        let rhs1 = parse_num(nums[2])?;
        if lhs % 2 != 0 {
            return Err(AigError::Parse(format!("AND lhs {lhs} is complemented")));
        }
        for raw in [lhs, rhs0, rhs1] {
            if raw / 2 > max_var {
                return Err(AigError::OutOfRange(format!(
                    "literal {raw} exceeds the declared maximum variable {max_var}"
                )));
            }
        }
        and_defs.push((lhs, rhs0, rhs1));
    }

    // AIGER guarantees topological order of AND definitions (lhs strictly
    // increasing, rhs < lhs), so one pass suffices.
    for (lhs, rhs0, rhs1) in &and_defs {
        let resolve = |raw: u32, lit_map: &FxHashMap<u32, Lit>| -> Result<Lit> {
            let base = lit_map
                .get(&(raw / 2))
                .copied()
                .ok_or_else(|| AigError::Parse(format!("literal {raw} used before definition")))?;
            Ok(base.xor(raw % 2 == 1))
        };
        let a = resolve(*rhs0, &lit_map)?;
        let b = resolve(*rhs1, &lit_map)?;
        if lit_map.contains_key(&(lhs / 2)) {
            return Err(AigError::Duplicate(format!(
                "AND variable {} is already defined",
                lhs / 2
            )));
        }
        let lit = aig.and(a, b);
        lit_map.insert(lhs / 2, lit);
    }

    // Symbol table (optional).
    let mut input_names: Vec<Option<String>> = vec![None; input_lines.len()];
    let mut output_names: Vec<Option<String>> = vec![None; output_lines.len()];
    let mut design_name: Option<String> = None;
    let mut in_comment = false;
    for line in symbol_lines {
        let line = line.trim();
        if in_comment {
            if design_name.is_none() && !line.is_empty() {
                design_name = Some(line.to_string());
            }
            continue;
        }
        if line == "c" {
            in_comment = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix('i') {
            if let Some((idx, name)) = rest.split_once(' ') {
                if let Ok(idx) = idx.parse::<usize>() {
                    if idx < input_names.len() {
                        input_names[idx] = Some(name.to_string());
                    }
                }
            }
        } else if let Some(rest) = line.strip_prefix('o') {
            if let Some((idx, name)) = rest.split_once(' ') {
                if let Ok(idx) = idx.parse::<usize>() {
                    if idx < output_names.len() {
                        output_names[idx] = Some(name.to_string());
                    }
                }
            }
        }
    }

    // Rebuild with proper names: outputs and renamed inputs.
    let mut named = Aig::new(design_name.unwrap_or_else(|| "aiger".to_string()));
    let named_inputs: Vec<Lit> = input_names
        .into_iter()
        .enumerate()
        .map(|(idx, name)| named.add_input(name.unwrap_or_else(|| format!("i{idx}"))))
        .collect();
    let map = aig.copy_logic_into(&mut named, &named_inputs);
    for (idx, raw) in output_raws.iter().enumerate() {
        let var = raw / 2;
        if var > max_var {
            return Err(AigError::OutOfRange(format!(
                "output literal {raw} exceeds the declared maximum variable {max_var}"
            )));
        }
        let lit_in_tmp = lit_map
            .get(&var)
            .ok_or_else(|| AigError::Parse(format!("output literal {raw} undefined")))?
            .xor(raw % 2 == 1);
        let mapped = map[lit_in_tmp.node().index()].xor(lit_in_tmp.is_complemented());
        let name = output_names[idx]
            .clone()
            .unwrap_or_else(|| format!("o{idx}"));
        named.add_output(mapped, name);
    }
    let _ = AigNode::Const; // keep the import meaningful for doc purposes
    Ok(named)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut aig = Aig::new("sample");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let x = aig.xor(a, b);
        let y = aig.mux(c, x, a);
        aig.add_output(y, "out");
        aig.add_output(x.not(), "xnor_ab");
        aig
    }

    #[test]
    fn roundtrip_preserves_function() {
        let aig = sample();
        let text = write_aiger(&aig);
        let back = read_aiger(&text).expect("parse back");
        assert_eq!(back.num_inputs(), aig.num_inputs());
        assert_eq!(back.num_outputs(), aig.num_outputs());
        for p in 0..8u32 {
            let bits = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            assert_eq!(aig.evaluate(&bits), back.evaluate(&bits), "pattern {p}");
        }
    }

    #[test]
    fn roundtrip_preserves_names() {
        let aig = sample();
        let back = read_aiger(&write_aiger(&aig)).unwrap();
        assert_eq!(back.input_names(), aig.input_names());
        assert_eq!(back.output_names(), aig.output_names());
        assert_eq!(back.name(), "sample");
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 2\n";
        match read_aiger(text) {
            Err(AigError::Unsupported(_)) => {}
            other => panic!("expected unsupported error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_header() {
        assert!(read_aiger("hello world").is_err());
        assert!(read_aiger("").is_err());
        assert!(read_aiger("aag 1 2\n").is_err());
    }

    #[test]
    fn rejects_truncated_header_with_parse_error() {
        for text in ["aag\n", "aag 3\n", "aag 3 1 0\n", "aag 3 1 0 1\n"] {
            match read_aiger(text) {
                Err(AigError::Parse(msg)) => {
                    assert!(msg.contains("truncated"), "unexpected message: {msg}")
                }
                other => panic!("expected truncated-header error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_out_of_range_literals() {
        // AND lhs variable 9 exceeds the declared max_var 2. This used to
        // crash the reader with an index panic instead of returning an error.
        let lhs = "aag 2 1 0 1 1\n2\n4\n18 2 2\n";
        assert!(matches!(read_aiger(lhs), Err(AigError::OutOfRange(_))));
        // AND rhs out of range.
        let rhs = "aag 2 1 0 1 1\n2\n4\n4 18 2\n";
        assert!(matches!(read_aiger(rhs), Err(AigError::OutOfRange(_))));
        // Output literal out of range (also panicked before).
        let out = "aag 1 1 0 1 0\n2\n99\n";
        assert!(matches!(read_aiger(out), Err(AigError::OutOfRange(_))));
        // Input variable out of range.
        let input = "aag 1 2 0 0 0\n2\n6\n";
        assert!(matches!(read_aiger(input), Err(AigError::OutOfRange(_))));
    }

    #[test]
    fn header_counts_size_nothing() {
        // `max_var + 1` used to wrap (release) or overflow (debug) and index
        // an empty table; a huge M is only a bound on the indices.
        let aig = read_aiger("aag 4294967295 0 0 0 0\n").unwrap();
        assert_eq!((aig.num_inputs(), aig.num_outputs()), (0, 0));
        let sparse = read_aiger("aag 4294967295 1 0 1 0\n8589934590\n");
        assert!(matches!(sparse, Err(AigError::Parse(_))), "not a u32");
        let sparse = read_aiger("aag 4294967295 1 0 1 0\n4294967294\n4294967295\n").unwrap();
        assert_eq!(sparse.evaluate(&[true]), vec![false]);
        // Counts the file does not back are refused before any allocation.
        for text in [
            "aag 1 4294967295 0 0 0\n2\n",
            "aag 1 0 0 4294967295 0\n0\n",
            "aag 1 0 0 0 4294967295\n",
            "aag 7 4294967295 0 4294967295 4294967295\n2\n4\n",
        ] {
            match read_aiger(text) {
                Err(AigError::Parse(msg)) => assert!(msg.contains("follow"), "{msg}"),
                other => panic!("expected a header-count error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_duplicate_definitions() {
        // Two inputs claiming variable 1.
        let dup_input = "aag 2 2 0 0 0\n2\n2\n";
        assert!(matches!(read_aiger(dup_input), Err(AigError::Duplicate(_))));
        // An AND redefining an input variable.
        let and_redefines_input = "aag 2 2 0 1 1\n2\n4\n2\n4 2 2\n";
        assert!(matches!(
            read_aiger(and_redefines_input),
            Err(AigError::Duplicate(_))
        ));
        // Two ANDs with the same lhs.
        let dup_and = "aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 4 2\n";
        assert!(matches!(read_aiger(dup_and), Err(AigError::Duplicate(_))));
    }

    #[test]
    fn parses_constant_outputs() {
        // Output literal 1 == constant true, 0 == constant false.
        let text = "aag 0 0 0 2 0\n1\n0\n";
        let aig = read_aiger(text).unwrap();
        assert_eq!(aig.evaluate(&[]), vec![true, false]);
    }

    #[test]
    fn writer_emits_valid_header() {
        let aig = sample();
        let text = write_aiger(&aig);
        let header: Vec<&str> = text.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(header[0], "aag");
        assert_eq!(header[2], "3"); // inputs
        assert_eq!(header[4], "2"); // outputs
    }
}
