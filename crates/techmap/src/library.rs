//! Standard-cell libraries.
//!
//! The E-morphic paper evaluates post-mapping quality with the ASAP 7-nm
//! predictive PDK. We reproduce the role of that library with a built-in
//! generic cell set ([`asap7_like`]) whose areas (µm²) and delays (ps) are in
//! the same ballpark as typical 7-nm standard cells. Only the Boolean
//! function, the area and a single pin-to-output delay matter to the mapper.

use crate::cuts::MAX_CUT_LEAVES;
use crate::timing::sorted_pin_delays;
use crate::truth::{expand_to_4, npn_canon4};
use aig::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::num::NonZeroU8;

/// A combinational standard cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Cell name (e.g. `NAND2`).
    pub name: String,
    /// Number of inputs (at most 4).
    pub num_inputs: usize,
    /// Truth table over `num_inputs` variables (low `2^n` bits).
    pub function: u16,
    /// Cell area in µm².
    pub area_um2: f64,
    /// Worst-case pin-to-output delay in ps (the maximum of
    /// [`Cell::pin_delays_ps`]).
    pub delay_ps: f64,
    /// Load-independent pin-to-output delay of each input pin in ps, in
    /// library pin order. Boolean matching does not track the NPN input
    /// permutation, so the mapper pairs these with cut-leaf arrivals through
    /// the conservative sorted pairing of [`crate::timing`] rather than by
    /// position.
    pub pin_delays_ps: Vec<f64>,
}

impl Cell {
    /// Creates a cell with a uniform pin-to-output delay on every input pin.
    pub fn new(
        name: impl Into<String>,
        num_inputs: usize,
        function: u16,
        area_um2: f64,
        delay_ps: f64,
    ) -> Self {
        Cell::with_pin_delays(
            name,
            num_inputs,
            function,
            area_um2,
            vec![delay_ps; num_inputs],
        )
    }

    /// Creates a cell with an explicit pin-to-output delay per input pin.
    ///
    /// # Panics
    /// Panics if the arity exceeds 4 or `pin_delays_ps` does not list exactly
    /// one delay per input pin.
    pub fn with_pin_delays(
        name: impl Into<String>,
        num_inputs: usize,
        function: u16,
        area_um2: f64,
        pin_delays_ps: Vec<f64>,
    ) -> Self {
        assert!(
            num_inputs <= 4,
            "cells of more than 4 inputs are not supported"
        );
        assert_eq!(
            pin_delays_ps.len(),
            num_inputs,
            "one pin delay per input pin"
        );
        let delay_ps = pin_delays_ps.iter().copied().fold(0.0, f64::max);
        Cell {
            name: name.into(),
            num_inputs,
            function,
            area_um2,
            delay_ps,
            pin_delays_ps,
        }
    }

    /// NPN-canonical form of the cell function (over 4 variables).
    pub fn npn_class(&self) -> u16 {
        npn_canon4(expand_to_4(self.function as u64, self.num_inputs))
    }
}

/// A set of cells indexed by NPN class for Boolean matching.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellLibrary {
    cells: Vec<Cell>,
    /// Each cell's pin delays in [`sorted_pin_delays`] form, computed once
    /// here instead of on every timing evaluation.
    sorted_pins: Vec<[f64; MAX_CUT_LEAVES]>,
    /// The smallest-area cell of each NPN class, the first added on ties,
    /// one slot per class in the order the classes first appeared.
    npn_cells: Vec<usize>,
    /// NPN class → its slot in `npn_cells`, counted from 1. Four inputs have
    /// 222 NPN classes, so a slot fits a byte and leaves 0 to mean "none".
    by_npn: FxHashMap<u16, NonZeroU8>,
    inverter: Option<usize>,
    buffer: Option<usize>,
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        CellLibrary::default()
    }

    /// Adds a cell and indexes it by NPN class. Returns its index.
    pub fn add(&mut self, cell: Cell) -> usize {
        let idx = self.cells.len();
        match self.by_npn.entry(cell.npn_class()) {
            Entry::Occupied(slot) => {
                let best = &mut self.npn_cells[usize::from(slot.get().get()) - 1];
                if self.cells[*best].area_um2 > cell.area_um2 {
                    *best = idx;
                }
            }
            Entry::Vacant(slot) => {
                self.npn_cells.push(idx);
                let next = u8::try_from(self.npn_cells.len())
                    .ok()
                    .and_then(NonZeroU8::new)
                    .unwrap_or_else(|| unreachable!("at most 222 NPN classes of 4 inputs"));
                slot.insert(next);
            }
        }
        self.sorted_pins
            .push(sorted_pin_delays(&cell.pin_delays_ps));
        // Track special cells for phase fixing.
        if cell.num_inputs == 1 && cell.function == 0b01 {
            self.inverter.get_or_insert(idx);
        }
        if cell.num_inputs == 1 && cell.function == 0b10 {
            self.buffer.get_or_insert(idx);
        }
        self.cells.push(cell);
        idx
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Returns the cell at `index`.
    pub fn cell(&self, index: usize) -> &Cell {
        &self.cells[index]
    }

    /// Iterates over all cells.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }

    /// Returns the index of the inverter cell, if the library has one.
    pub fn inverter(&self) -> Option<usize> {
        self.inverter
    }

    /// Returns the index of the buffer cell, if the library has one.
    pub fn buffer(&self) -> Option<usize> {
        self.buffer
    }

    /// Finds the best (smallest-area, first added on ties) cell matching the
    /// given 4-variable truth table up to NPN equivalence, or `None` if no
    /// cell realizes its NPN class.
    pub fn match_function(&self, tt4: u16) -> Option<usize> {
        self.match_slot(tt4).map(|slot| self.slot_cell(slot))
    }

    /// [`CellLibrary::match_function`] as the matched NPN class's slot: one
    /// byte, `None` included, that the mapper stores per cut and resolves
    /// with [`CellLibrary::slot_cell`].
    pub(crate) fn match_slot(&self, tt4: u16) -> Option<NonZeroU8> {
        self.by_npn.get(&npn_canon4(tt4)).copied()
    }

    /// The cell an NPN class slot matches.
    pub(crate) fn slot_cell(&self, slot: NonZeroU8) -> usize {
        self.npn_cells[usize::from(slot.get()) - 1]
    }

    /// The pin delays of the cell at `index` in [`sorted_pin_delays`] form.
    pub(crate) fn sorted_pins(&self, index: usize) -> &[f64; MAX_CUT_LEAVES] {
        &self.sorted_pins[index]
    }

    /// Total number of distinct NPN classes covered by the library.
    pub fn num_npn_classes(&self) -> usize {
        self.by_npn.len()
    }
}

/// Truth-table helpers for building libraries (2-input tables use bits 0..4,
/// 3-input tables bits 0..8, 4-input tables bits 0..16).
mod tt {
    pub const A: u16 = 0xAAAA;
    pub const B: u16 = 0xCCCC;
    pub const C: u16 = 0xF0F0;
    pub const D: u16 = 0xFF00;

    pub const fn mask(n: usize) -> u16 {
        if n >= 4 {
            0xFFFF
        } else {
            (1u16 << (1usize << n)) - 1
        }
    }
}

/// Builds the built-in 7-nm-style generic library used throughout the
/// reproduction (the ASAP7 stand-in).
///
/// Areas are in µm² and delays in ps, chosen to be representative of a
/// 7.5-track 7-nm library: an inverter is ~0.05 µm² and ~10 ps, a NAND2
/// ~0.07 µm² and ~14 ps, with complex cells scaled accordingly. Each
/// multi-input cell lists one delay per input pin: the first pin is the
/// slowest (the value historically reported as the cell delay) and later
/// pins are progressively faster, the usual stack-position asymmetry of
/// static CMOS gates.
pub fn asap7_like() -> CellLibrary {
    use tt::{mask, A, B, C, D};
    let mut lib = CellLibrary::new();
    let m2 = mask(2);
    let m3 = mask(3);
    let m4 = mask(4);

    /// Spreads a worst-case delay over `n` pins: pin 0 keeps `worst`, each
    /// later pin is 8% faster than the previous one.
    fn pins(worst: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| worst * 0.92f64.powi(i as i32)).collect()
    }

    // Single-input cells.
    lib.add(Cell::new("INVx1", 1, !A & mask(1), 0.0486, 10.0));
    lib.add(Cell::new("BUFx2", 1, A & mask(1), 0.0648, 16.0));

    // Two-input cells.
    let cell2 = |name: &str, f: u16, area: f64, worst: f64| {
        Cell::with_pin_delays(name, 2, f & m2, area, pins(worst, 2))
    };
    lib.add(cell2("NAND2x1", !(A & B), 0.0648, 14.0));
    lib.add(cell2("NOR2x1", !(A | B), 0.0648, 15.0));
    lib.add(cell2("AND2x2", A & B, 0.0810, 20.0));
    lib.add(cell2("OR2x2", A | B, 0.0810, 21.0));
    lib.add(cell2("XOR2x1", A ^ B, 0.1134, 26.0));
    lib.add(cell2("XNOR2x1", !(A ^ B), 0.1134, 26.0));

    // Three-input cells.
    let cell3 = |name: &str, f: u16, area: f64, worst: f64| {
        Cell::with_pin_delays(name, 3, f & m3, area, pins(worst, 3))
    };
    lib.add(cell3("NAND3x1", !(A & B & C), 0.0810, 18.0));
    lib.add(cell3("NOR3x1", !(A | B | C), 0.0810, 20.0));
    lib.add(cell3("AND3x1", A & B & C, 0.0972, 24.0));
    lib.add(cell3("OR3x1", A | B | C, 0.0972, 25.0));
    lib.add(cell3("AOI21x1", !((A & B) | C), 0.0810, 17.0));
    lib.add(cell3("OAI21x1", !((A | B) & C), 0.0810, 17.0));
    lib.add(cell3("AO21x1", (A & B) | C, 0.0972, 23.0));
    lib.add(cell3("OA21x1", (A | B) & C, 0.0972, 23.0));
    lib.add(cell3("MAJ3x1", (A & B) | (B & C) | (A & C), 0.1296, 27.0));
    lib.add(cell3("XOR3x1", A ^ B ^ C, 0.1782, 34.0));
    lib.add(cell3("MUX2x1", (C & A) | (!C & B), 0.1134, 25.0));

    // Four-input cells.
    let cell4 = |name: &str, f: u16, area: f64, worst: f64| {
        Cell::with_pin_delays(name, 4, f & m4, area, pins(worst, 4))
    };
    lib.add(cell4("NAND4x1", !(A & B & C & D), 0.0972, 22.0));
    lib.add(cell4("NOR4x1", !(A | B | C | D), 0.0972, 25.0));
    lib.add(cell4("AND4x1", A & B & C & D, 0.1134, 27.0));
    lib.add(cell4("OR4x1", A | B | C | D, 0.1134, 28.0));
    lib.add(cell4("AOI22x1", !((A & B) | (C & D)), 0.0972, 20.0));
    lib.add(cell4("OAI22x1", !((A | B) & (C | D)), 0.0972, 20.0));
    lib.add(cell4("AO22x1", (A & B) | (C & D), 0.1134, 26.0));
    lib.add(cell4("OA22x1", (A | B) & (C | D), 0.1134, 26.0));
    lib.add(cell4("AOI211x1", !((A & B) | C | D), 0.0972, 21.0));
    lib.add(cell4("OAI211x1", !((A | B) & C & D), 0.0972, 21.0));

    lib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::full_mask;

    #[test]
    fn builtin_library_is_well_formed() {
        let lib = asap7_like();
        assert!(lib.len() >= 25);
        assert!(!lib.is_empty());
        assert!(lib.inverter().is_some());
        assert!(lib.buffer().is_some());
        for cell in lib.cells() {
            assert!(cell.area_um2 > 0.0, "{}", cell.name);
            assert!(cell.delay_ps > 0.0, "{}", cell.name);
            assert_eq!(cell.pin_delays_ps.len(), cell.num_inputs, "{}", cell.name);
            let worst = cell.pin_delays_ps.iter().copied().fold(0.0, f64::max);
            assert_eq!(cell.delay_ps, worst, "{}", cell.name);
            assert!(cell.pin_delays_ps.iter().all(|&d| d > 0.0), "{}", cell.name);
            assert!(cell.num_inputs >= 1 && cell.num_inputs <= 4);
            // The function must fit in 2^n bits.
            let extra = (cell.function as u64) & !full_mask(cell.num_inputs);
            assert_eq!(extra, 0, "{} has bits outside its arity", cell.name);
        }
    }

    #[test]
    fn multi_input_cells_have_asymmetric_pins() {
        let lib = asap7_like();
        let nand2 = lib.cells().find(|c| c.name == "NAND2x1").unwrap();
        assert_eq!(nand2.pin_delays_ps.len(), 2);
        assert!(nand2.pin_delays_ps[0] > nand2.pin_delays_ps[1]);
        assert_eq!(nand2.delay_ps, nand2.pin_delays_ps[0]);
        // The uniform constructor replicates the single delay.
        let c = Cell::new("T", 3, 0b1000_0000, 1.0, 5.0);
        assert_eq!(c.pin_delays_ps, vec![5.0, 5.0, 5.0]);
    }

    #[test]
    fn inverter_and_buffer_identified() {
        let lib = asap7_like();
        assert_eq!(lib.cell(lib.inverter().unwrap()).name, "INVx1");
        assert_eq!(lib.cell(lib.buffer().unwrap()).name, "BUFx2");
    }

    #[test]
    fn matching_finds_nand_class_for_and() {
        let lib = asap7_like();
        // a & b as a 4-var table.
        let and_tt = expand_to_4(0b1000, 2);
        let idx = lib.match_function(and_tt).expect("AND matches");
        // The cheapest cell in the AND/NAND/NOR/OR NPN class is a NAND2 or NOR2.
        let name = &lib.cell(idx).name;
        assert!(
            name.starts_with("NAND2") || name.starts_with("NOR2"),
            "unexpected match {name}"
        );
    }

    #[test]
    fn matching_rejects_unknown_functions() {
        let lib = asap7_like();
        // A random-looking 4-input function unlikely to be in the library.
        assert!(lib.match_function(0x1ee7).is_none());
    }

    #[test]
    fn npn_classes_are_fewer_than_cells() {
        // NAND2/NOR2/AND2/OR2 collapse into one class, so classes < cells.
        let lib = asap7_like();
        assert!(lib.num_npn_classes() < lib.len());
        assert!(lib.num_npn_classes() >= 10);
    }

    #[test]
    fn match_prefers_smaller_area_cell() {
        let mut lib = CellLibrary::new();
        let big = Cell::new("BIGAND", 2, 0b1000, 1.0, 5.0);
        let small = Cell::new("SMALLNAND", 2, 0b0111, 0.3, 5.0);
        lib.add(big);
        lib.add(small);
        let idx = lib.match_function(expand_to_4(0b1000, 2)).unwrap();
        assert_eq!(lib.cell(idx).name, "SMALLNAND");
    }
}
