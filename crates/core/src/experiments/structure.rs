//! Tables I and II: the structural properties of the HMC generations and
//! the flit sizes of every transaction type, regenerated from the spec and
//! packet laws (exact by construction).

use hmc_types::packet::{OpKind, TransactionSizes};
use hmc_types::{HmcSpec, HmcVersion, RequestSize};

use crate::report::Table;

/// Table I: properties of HMC 1.0, 1.1 and 2.0.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table I: properties of HMC versions",
        &["property", "HMC 1.0", "HMC 1.1", "HMC 2.0"],
    );
    let specs = [HmcVersion::Gen1, HmcVersion::Gen2, HmcVersion::Hmc2].map(HmcSpec::of);
    let mut row = |name: &str, f: &dyn Fn(&HmcSpec) -> String| {
        let mut cells = vec![name.to_string()];
        cells.extend(specs.iter().map(f));
        t.row(cells);
    };
    row("size (GB)", &|s| {
        format!("{:.1}", s.capacity_bytes() as f64 / (1 << 30) as f64)
    });
    row("DRAM layers", &|s| s.dram_layers().to_string());
    row("quadrants", &|s| s.num_quadrants().to_string());
    row("vaults", &|s| s.num_vaults().to_string());
    row("vaults/quadrant", &|s| s.vaults_per_quadrant().to_string());
    row("banks", &|s| s.total_banks().to_string());
    row("banks/vault", &|s| s.banks_per_vault().to_string());
    row("bank size (MB)", &|s| (s.bank_bytes() >> 20).to_string());
    row("partition size (MB)", &|s| {
        (s.partition_bytes() >> 20).to_string()
    });
    t
}

/// Table II: request and response sizes in flits per payload size.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table II: request/response sizes in flits",
        &["size", "rd req", "rd resp", "wr req", "wr resp"],
    );
    for size in RequestSize::ALL {
        let rd = TransactionSizes::of(OpKind::Read, size);
        let wr = TransactionSizes::of(OpKind::Write, size);
        t.row(vec![
            size.to_string(),
            rd.request_flits().count().to_string(),
            rd.response_flits().count().to_string(),
            wr.request_flits().count().to_string(),
            wr.response_flits().count().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_match_the_spec() {
        let t1 = table1();
        assert_eq!(t1.len(), 9);
        assert_eq!(t1.cell(5, 0), "banks");
        assert_eq!(t1.cell(5, 2), "256");
        let t2 = table2();
        assert_eq!(t2.len(), RequestSize::ALL.len());
        assert_eq!(t2.cell(7, 2), "9");
    }
}
