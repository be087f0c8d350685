#include "rt/scheduler.h"

#include <sstream>

#include "common/logging.h"

namespace crw {

Scheduler::Scheduler(WindowEngine &engine, SchedPolicy policy,
                     std::size_t stack_size)
    : engine_(engine),
      core_(policy),
      policy_(policy),
      stackSize_(stack_size)
{}

Scheduler::~Scheduler() = default;

Scheduler::Thread &
Scheduler::thread(ThreadId tid)
{
    crw_assert(tid >= 0 && tid < static_cast<ThreadId>(threads_.size()));
    return threads_[static_cast<std::size_t>(tid)];
}

const Scheduler::Thread &
Scheduler::thread(ThreadId tid) const
{
    crw_assert(tid >= 0 && tid < static_cast<ThreadId>(threads_.size()));
    return threads_[static_cast<std::size_t>(tid)];
}

ThreadId
Scheduler::spawn(std::string name, std::function<void()> body,
                 std::uint8_t priority)
{
    const ThreadId tid = static_cast<ThreadId>(threads_.size());
    engine_.addThread(tid);
    if (sink_)
        sink_->onThreadSpawn(tid, name, priority);
    Thread t;
    t.id = tid;
    t.name = std::move(name);
    t.state = ThreadState::Ready;
    t.coro = std::make_unique<Coroutine>(std::move(body), stackSize_);
    threads_.push_back(std::move(t));
    policy_.noteSpawn(tid, priority);
    policy_.onSpawn(core_, tid);
    return tid;
}

void
Scheduler::dispatch(ThreadId tid)
{
    Thread &t = thread(tid);
    crw_assert(t.state == ThreadState::Ready);
    t.state = ThreadState::Running;
    running_ = tid;
    if (engine_.current() != tid)
        engine_.contextSwitch(tid);
    t.coro->resume();
    running_ = kNoThread;
    if (t.coro->finished()) {
        t.state = ThreadState::Finished;
        if (sink_)
            sink_->recordExit(tid);
        engine_.threadExit();
    }
    // Otherwise the thread blocked; blockCurrent() already set the
    // state and queued the id on a waitlist.
}

void
Scheduler::run()
{
    crw_assert(!inRun_);
    inRun_ = true;
    while (!core_.idle())
        dispatch(core_.dispatchNext());
    inRun_ = false;

    std::ostringstream stuck;
    int blocked = 0;
    for (const Thread &t : threads_) {
        if (t.state == ThreadState::Blocked) {
            ++blocked;
            stuck << ' ' << t.name << '(' << t.id << ')';
        }
    }
    if (blocked > 0)
        crw_fatal << "deadlock: " << blocked
                  << " thread(s) blocked forever:" << stuck.str();
}

void
Scheduler::blockCurrent(std::vector<ThreadId> &waitlist)
{
    crw_assert(running_ != kNoThread);
    Thread &t = thread(running_);
    crw_assert(t.state == ThreadState::Running);
    waitlist.push_back(t.id);
    t.state = ThreadState::Blocked;
    t.coro->yieldToMain();
    // Back: dispatch() marked us Running again.
    crw_assert(t.state == ThreadState::Running);
}

void
Scheduler::wake(ThreadId tid)
{
    Thread &t = thread(tid);
    if (t.state != ThreadState::Blocked)
        return;
    t.state = ThreadState::Ready;
    // Queue placement is the policy object's job; residency is
    // evaluated here, at wake time, exactly as the paper's monitor
    // would.
    policy_.wake(core_, tid, engine_.isResident(tid));
}

ThreadState
Scheduler::state(ThreadId tid) const
{
    return thread(tid).state;
}

} // namespace crw
