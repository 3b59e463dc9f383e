// Invoices: the resource provider's billing statement for one consumer.
//
// Converts a lease ledger (the provision service's record of what a TRE or
// DRP user held and when) into line items priced at the hourly rate — the
// pay-per-use half of the paper's economics, complementing the TCO models.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/billing.hpp"
#include "cost/tco.hpp"
#include "util/time.hpp"

namespace dc::cost {

struct InvoiceLine {
  std::string item;  // lease tag ("initial", "DR1#3", "job", "vm", ...)
  std::int64_t nodes = 0;
  SimTime start = 0;
  SimTime end = 0;  // horizon-clipped for open leases
  std::int64_t billed_hours = 0;     // per node
  std::int64_t node_hours = 0;       // nodes * billed_hours
  double amount_usd = 0.0;
};

struct Invoice {
  std::string consumer;
  SimTime period_start = 0;
  SimTime period_end = 0;
  double price_per_node_hour = 0.0;
  std::vector<InvoiceLine> lines;
  std::int64_t total_node_hours = 0;
  double total_usd = 0.0;
};

/// Builds an invoice over [0, horizon] from a ledger, one line per base
/// tag (the part before '#'), so ledgers with hundreds of grants stay
/// readable. Leases still open at the horizon are billed as if closed
/// there. Lines appear in base-tag order.
Invoice generate_summary_invoice(const std::string& consumer,
                                 const cluster::LeaseLedger& ledger,
                                 SimTime horizon,
                                 double price_per_node_hour =
                                     Ec2CostModel{}.usd_per_instance_hour);

/// Renders the invoice; at most `max_lines` line items are printed (the
/// rest are folded into an "... N more" row), totals always shown.
std::string format_invoice(const Invoice& invoice, std::size_t max_lines = 20);

}  // namespace dc::cost
