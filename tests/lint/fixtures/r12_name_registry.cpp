// dc-r12 fixture: trace name-registry conflicts. Never compiled, only
// lexed; the rule tests join these facts through the project model.
#include "obs/trace.hpp"

namespace {
const dc::obs::TraceName kJobStart{"job.start"};
const dc::obs::TraceName kJobStartDup{"job.start"};  // duplicate: fires
const dc::obs::TraceName kQueueDepth{"queue.depth"};
}  // namespace

void emit(dc::obs::TraceSink* sink, dc::SimTime now) {
  DC_TRACE_INSTANT_C(sink, now, "sweep", "sweep.tick");
  DC_TRACE_SPAN_C(sink, now, 10, "sweep", "sweep.tick");  // span too: fires
}
