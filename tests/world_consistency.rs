//! Cross-dataset consistency: one world, many views. Every dataset must
//! agree about who exists and who dominates — the property that makes the
//! composed picture of the paper meaningful.

use lacnet::bgp::propagation::RouteSim;
use lacnet::crisis::topology::TopologyBuilder;
use lacnet::crisis::{World, WorldConfig};
use lacnet::types::{country, Asn, Date, MonthStamp};
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test()))
}

#[test]
fn every_ve_eyeball_exists_in_every_dataset() {
    let w = world();
    let m = MonthStamp::new(2023, 6);
    let graph = w.topology.get(m).expect("snapshot exists");
    let table = w.pfx2as_at(m);
    for op in w.operators.eyeballs(country::VE) {
        // In the topology…
        assert!(
            graph.contains(op.asn),
            "AS{} missing from topology",
            op.asn.raw()
        );
        // …announcing address space…
        assert!(
            !table.prefixes_of(op.asn).is_empty(),
            "AS{} announces nothing",
            op.asn.raw()
        );
        // …with registry space backing the announcement…
        assert!(
            w.addressing.ledger().space_of_holder(op.asn, m.last_day()) > 0,
            "AS{} has no allocation",
            op.asn.raw()
        );
        // …and a population estimate.
        assert!(
            w.operators.populations().users_of(country::VE, op.asn) > 0,
            "AS{} has no users",
            op.asn.raw()
        );
    }
}

#[test]
fn announced_space_never_exceeds_allocated() {
    let w = world();
    for m in [
        MonthStamp::new(2010, 1),
        MonthStamp::new(2017, 1),
        MonthStamp::new(2023, 12),
    ] {
        let table = w.pfx2as_at(m);
        let ops = w.operators.in_country(country::VE);
        let asns: Vec<Asn> = ops.iter().map(|op| op.asn).collect();
        for (op, announced) in ops.iter().zip(table.address_space_by_origin(&asns)) {
            let allocated = w.addressing.ledger().space_of_holder(op.asn, m.last_day());
            assert!(
                announced <= allocated,
                "AS{} announces {announced} > allocated {allocated} at {m}",
                op.asn.raw()
            );
        }
    }
}

#[test]
fn all_announced_origins_reach_collectors() {
    let w = world();
    let m = MonthStamp::new(2021, 3);
    let graph = w.topology.get(m).expect("snapshot exists");
    let table = w.pfx2as_at(m);
    let sim = RouteSim::new(graph);
    let collectors = TopologyBuilder::collectors();
    let origins: BTreeSet<Asn> = table.iter().flat_map(|(_, o)| o.asns().to_vec()).collect();
    for origin in origins {
        let vis = sim.propagate(origin).visibility(&collectors);
        assert!(vis > 0.0, "AS{} in pfx2as but invisible", origin.raw());
    }
}

#[test]
fn probe_hosts_are_real_operators_or_access_tail() {
    let w = world();
    for probe in w
        .dns
        .probes
        .all()
        .iter()
        .filter(|p| p.country == country::VE)
    {
        assert!(
            w.operators.by_asn(probe.asn).is_some(),
            "probe {} hosted by unknown AS{}",
            probe.id,
            probe.asn.raw()
        );
    }
}

#[test]
fn peeringdb_ixp_members_exist_in_population_data_when_eyeballs() {
    let w = world();
    let (_, snap) = w.peeringdb.latest().expect("archive non-empty");
    for ix in &snap.ix {
        for asn in snap.networks_at_ixp(ix.id) {
            // Every member is either a cast operator or a PeeringDB-only
            // network (Table 2 extras, which never carry population).
            if let Some(op) = w.operators.by_asn(asn) {
                if op.users > 0 {
                    assert!(
                        w.operators.populations().users_of(op.country, asn) > 0,
                        "member AS{} lacks population data",
                        asn.raw()
                    );
                }
            }
        }
    }
}

#[test]
fn cert_scan_hosts_are_known_networks() {
    let w = world();
    for scan in &w.cert_scans {
        for rec in &scan.records {
            if rec.country == country::US {
                continue; // hypergiants' own networks
            }
            assert!(
                w.operators.by_asn(rec.asn).is_some(),
                "scan record from unknown AS{}",
                rec.asn.raw()
            );
        }
    }
}

#[test]
fn the_state_never_loses_the_lead() {
    // The thesis of §4: through every dataset, CANTV stays the dominant
    // domestic player across the whole window.
    let w = world();
    let pops = w.operators.populations();
    let ranked = pops.ranked(country::VE);
    assert_eq!(ranked[0].0, Asn(8048));
    for m in [
        MonthStamp::new(2010, 1),
        MonthStamp::new(2016, 1),
        MonthStamp::new(2023, 12),
    ] {
        let table = w.pfx2as_at(m);
        let cantv = table.address_space_by_origin(&[Asn(8048)])[0];
        let eyeballs = w.operators.eyeballs(country::VE);
        let asns: Vec<Asn> = eyeballs.iter().map(|op| op.asn).collect();
        for (op, space) in eyeballs.iter().zip(table.address_space_by_origin(&asns)) {
            if op.asn != Asn(8048) {
                assert!(space <= cantv, "AS{} outgrew CANTV at {m}", op.asn.raw());
            }
        }
    }
    // And the registry view agrees.
    let cantv_alloc = w
        .addressing
        .ledger()
        .space_of_holder(Asn(8048), Date::ymd(2024, 1, 1));
    let telefonica_alloc = w
        .addressing
        .ledger()
        .space_of_holder(Asn(6306), Date::ymd(2024, 1, 1));
    assert!(cantv_alloc > telefonica_alloc);
}
