// A kernel-calling loop with no budget poll (the violation), and a
// polled twin that must stay clean.

void
bad(Instantiater &inst, const std::vector<Task> &tasks)
{
    for (const Task &t : tasks)
        inst.instantiate(t);
}

void
good(Instantiater &inst, const std::vector<Task> &tasks,
     resilience::Budget &budget)
{
    for (const Task &t : tasks) {
        if (budget.exhausted())
            break;
        inst.instantiate(t);
    }
}

// The certify entry point counts as a kernel call as well.
void
badCertify(const std::vector<Run> &runs, ThreadPool &pool)
{
    for (const Run &r : runs)
        productTraces(r.n, r.reference, r.products, pool);
}
