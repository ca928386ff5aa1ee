#include "src/dbg/kernel_introspect.h"

#include <cstring>
#include <type_traits>

namespace dbg {

namespace {

// Maps C++ struct types to their kernel type names (usually identical; the
// few renames restore the kernel spelling that the C++ port had to avoid).
template <typename T>
struct KernelTypeName;

#define VL_KTYPE(cpp_type, kname)                \
  template <>                                    \
  struct KernelTypeName<vkern::cpp_type> {       \
    static constexpr const char* kName = kname;  \
  }

VL_KTYPE(page, "page");
VL_KTYPE(free_area, "free_area");
VL_KTYPE(zone, "zone");
VL_KTYPE(slab, "slab");
VL_KTYPE(kmem_cache, "kmem_cache");
VL_KTYPE(rcu_head, "rcu_head");
VL_KTYPE(rcu_data, "rcu_data");
VL_KTYPE(rcu_state, "rcu_state");
VL_KTYPE(maple_range_64_s, "maple_range_64");
VL_KTYPE(maple_arange_64_s, "maple_arange_64");
VL_KTYPE(maple_node, "maple_node");
VL_KTYPE(maple_tree, "maple_tree");
VL_KTYPE(radix_tree_node, "radix_tree_node");
VL_KTYPE(radix_tree_root, "radix_tree_root");
VL_KTYPE(load_weight, "load_weight");
VL_KTYPE(sched_entity, "sched_entity");
VL_KTYPE(cfs_rq, "cfs_rq");
VL_KTYPE(rq, "rq");
VL_KTYPE(sigset_t_sim, "sigset_t");
VL_KTYPE(sigaction_k, "sigaction");
VL_KTYPE(k_sigaction, "k_sigaction");
VL_KTYPE(sigqueue, "sigqueue");
VL_KTYPE(sigpending, "sigpending");
VL_KTYPE(sighand_struct, "sighand_struct");
VL_KTYPE(signal_struct, "signal_struct");
VL_KTYPE(vm_area_struct, "vm_area_struct");
VL_KTYPE(atomic_t, "atomic_t");
VL_KTYPE(mm_struct, "mm_struct");
VL_KTYPE(anon_vma, "anon_vma");
VL_KTYPE(anon_vma_chain, "anon_vma_chain");
VL_KTYPE(address_space, "address_space");
VL_KTYPE(inode, "inode");
VL_KTYPE(dentry, "dentry");
VL_KTYPE(file_operations_stub, "file_operations");
VL_KTYPE(file, "file");
VL_KTYPE(fdtable, "fdtable");
VL_KTYPE(files_struct, "files_struct");
VL_KTYPE(file_system_type, "file_system_type");
VL_KTYPE(block_device, "block_device");
VL_KTYPE(super_block, "super_block");
VL_KTYPE(pipe_buf_operations_stub, "pipe_buf_operations");
VL_KTYPE(pipe_buffer, "pipe_buffer");
VL_KTYPE(pipe_inode_info, "pipe_inode_info");
VL_KTYPE(sk_buff, "sk_buff");
VL_KTYPE(sk_buff_head, "sk_buff_head");
VL_KTYPE(socket, "socket");
VL_KTYPE(sock, "sock");
VL_KTYPE(timer_list, "timer_list");
VL_KTYPE(timer_base, "timer_base");
VL_KTYPE(irq_chip, "irq_chip");
VL_KTYPE(irq_data, "irq_data");
VL_KTYPE(irq_desc, "irq_desc");
VL_KTYPE(irqaction, "irqaction");
VL_KTYPE(work_struct, "work_struct");
VL_KTYPE(delayed_work, "delayed_work");
VL_KTYPE(pool_workqueue, "pool_workqueue");
VL_KTYPE(worker, "worker");
VL_KTYPE(worker_pool, "worker_pool");
VL_KTYPE(workqueue_struct, "workqueue_struct");
VL_KTYPE(kern_ipc_perm, "kern_ipc_perm");
VL_KTYPE(sem_sim, "sem");
VL_KTYPE(sem_array, "sem_array");
VL_KTYPE(msg_msg, "msg_msg");
VL_KTYPE(msg_queue, "msg_queue");
VL_KTYPE(ipc_ids, "ipc_ids");
VL_KTYPE(ipc_namespace, "ipc_namespace");
VL_KTYPE(kref, "kref");
VL_KTYPE(kobject, "kobject");
VL_KTYPE(kset, "kset");
VL_KTYPE(bus_type, "bus_type");
VL_KTYPE(device_driver, "device_driver");
VL_KTYPE(device, "device");
VL_KTYPE(swap_info_struct, "swap_info_struct");
VL_KTYPE(pid_struct, "pid");
VL_KTYPE(pid_link, "pid_link");
VL_KTYPE(task_struct, "task_struct");
VL_KTYPE(list_head, "list_head");
VL_KTYPE(hlist_head, "hlist_head");
VL_KTYPE(hlist_node, "hlist_node");
VL_KTYPE(rb_node, "rb_node");
VL_KTYPE(rb_root, "rb_root");
VL_KTYPE(rb_root_cached, "rb_root_cached");
VL_KTYPE(vmstat_work_item, "vmstat_work_item");
VL_KTYPE(lru_drain_item, "lru_drain_item");
VL_KTYPE(drain_pages_item, "drain_pages_item");

#undef VL_KTYPE

template <typename T, typename = void>
struct HasKernelName : std::false_type {};
template <typename T>
struct HasKernelName<T, std::void_t<decltype(KernelTypeName<T>::kName)>> : std::true_type {};

// Deduces the registry Type for a C++ field type. Aggregate types must have
// been declared beforehand (two-phase registration).
template <typename T>
const Type* DeduceType(TypeRegistry* reg) {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_same_v<U, bool>) {
    return reg->bool_type();
  } else if constexpr (std::is_same_v<U, char>) {
    return reg->char_type();
  } else if constexpr (std::is_enum_v<U>) {
    return reg->IntType(sizeof(U), std::is_signed_v<std::underlying_type_t<U>>);
  } else if constexpr (std::is_integral_v<U>) {
    return reg->IntType(sizeof(U), std::is_signed_v<U>);
  } else if constexpr (std::is_array_v<U>) {
    using Elem = std::remove_extent_t<U>;
    return reg->ArrayOf(DeduceType<Elem>(reg), std::extent_v<U>);
  } else if constexpr (std::is_pointer_v<U>) {
    using P = std::remove_cv_t<std::remove_pointer_t<U>>;
    if constexpr (std::is_function_v<P>) {
      return reg->PointerTo(reg->func_type());
    } else if constexpr (std::is_void_v<P>) {
      return reg->PointerTo(reg->void_type());
    } else {
      return reg->PointerTo(DeduceType<P>(reg));
    }
  } else if constexpr (HasKernelName<U>::value) {
    const Type* t = reg->FindByName(KernelTypeName<U>::kName);
    return t != nullptr ? t : reg->void_type();
  } else {
    static_assert(HasKernelName<U>::value, "field type lacks a kernel type name");
    return nullptr;
  }
}

}  // namespace

bool KernelDebugger::ArenaMemory::ReadBytes(uint64_t addr, void* out, size_t len) const {
  if (!arena_->Contains(addr, len)) {
    return false;
  }
  std::memcpy(out, arena_->AtAddr(addr), len);
  return true;
}

uint64_t KernelDebugger::ArenaMemory::generation() const {
  return kernel_->generation();
}

DirtyPageInfo KernelDebugger::ArenaMemory::DirtyPagesSince(uint64_t since_generation) const {
  uint64_t scanned_before = journal_ != nullptr ? journal_->pages_scanned() : 0;
  if (journal_ == nullptr) {
    // Lazily baseline at the current generation: every page starts marked
    // dirty at this epoch, so a first query over an older epoch safely
    // degenerates to "everything dirty".
    journal_ = std::make_unique<vkern::PageJournal>(arena_, kernel_->generation());
  }
  std::vector<uint32_t> pages =
      journal_->DirtyPagesSince(since_generation, kernel_->generation());
  DirtyPageInfo info;
  info.supported = true;
  info.page_size = vkern::kPageSize;
  info.pages_total = journal_->page_count();
  info.pages_scanned = journal_->pages_scanned() - scanned_before;
  info.dirty_pages.reserve(pages.size());
  for (uint32_t p : pages) {
    info.dirty_pages.push_back(arena_->base_addr() + uint64_t{p} * vkern::kPageSize);
  }
  return info;
}

KernelDebugger::KernelDebugger(vkern::Kernel* kernel, LatencyModel model,
                               CacheConfig cache)
    : kernel_(kernel), memory_(&kernel->arena(), kernel) {
  target_ = std::make_unique<Target>(&memory_, std::move(model));
  RegisterTypes();
  RegisterEnums();
  // BuildStateStringTable writes the arena (AllocMeta). The bump makes
  // sessions already attached to this kernel (other debuggers') drop the
  // blocks, memo and results covering those pages; it precedes this
  // debugger's own session, which baselines at the new generation.
  BuildStateStringTable();
  kernel_->BumpGeneration();
  session_ = std::make_unique<ReadSession>(target_.get(), cache);
  RegisterSymbols();
  RegisterHelpers();
  context_ = std::make_unique<EvalContext>(&types_, session_.get(), &symbols_, &helpers_);
}

void KernelDebugger::RegisterTypes() {
  TypeRegistry* reg = &types_;

  // Phase 1: declare every aggregate so pointer fields can resolve.
#define DECL(S) Type* t_##S = reg->DeclareStruct(KernelTypeName<vkern::S>::kName, sizeof(vkern::S))
  DECL(list_head);
  DECL(hlist_head);
  DECL(hlist_node);
  DECL(rb_node);
  DECL(rb_root);
  DECL(rb_root_cached);
  DECL(page);
  DECL(free_area);
  DECL(zone);
  DECL(slab);
  DECL(kmem_cache);
  DECL(rcu_head);
  DECL(rcu_data);
  DECL(rcu_state);
  DECL(maple_range_64_s);
  DECL(maple_arange_64_s);
  DECL(maple_node);
  DECL(maple_tree);
  DECL(radix_tree_node);
  DECL(radix_tree_root);
  DECL(load_weight);
  DECL(sched_entity);
  DECL(cfs_rq);
  DECL(rq);
  DECL(sigset_t_sim);
  DECL(sigaction_k);
  DECL(k_sigaction);
  DECL(sigqueue);
  DECL(sigpending);
  DECL(sighand_struct);
  DECL(signal_struct);
  DECL(vm_area_struct);
  DECL(atomic_t);
  DECL(mm_struct);
  DECL(anon_vma);
  DECL(anon_vma_chain);
  DECL(address_space);
  DECL(inode);
  DECL(dentry);
  DECL(file_operations_stub);
  DECL(file);
  DECL(fdtable);
  DECL(files_struct);
  DECL(file_system_type);
  DECL(block_device);
  DECL(super_block);
  DECL(pipe_buf_operations_stub);
  DECL(pipe_buffer);
  DECL(pipe_inode_info);
  DECL(sk_buff);
  DECL(sk_buff_head);
  DECL(socket);
  DECL(sock);
  DECL(timer_list);
  DECL(timer_base);
  DECL(irq_chip);
  DECL(irq_data);
  DECL(irq_desc);
  DECL(irqaction);
  DECL(work_struct);
  DECL(delayed_work);
  DECL(pool_workqueue);
  DECL(worker);
  DECL(worker_pool);
  DECL(workqueue_struct);
  DECL(kern_ipc_perm);
  DECL(sem_sim);
  DECL(sem_array);
  DECL(msg_msg);
  DECL(msg_queue);
  DECL(ipc_ids);
  DECL(ipc_namespace);
  DECL(kref);
  DECL(kobject);
  DECL(kset);
  DECL(bus_type);
  DECL(device_driver);
  DECL(device);
  DECL(swap_info_struct);
  DECL(pid_struct);
  DECL(pid_link);
  DECL(task_struct);
  DECL(vmstat_work_item);
  DECL(lru_drain_item);
  DECL(drain_pages_item);
#undef DECL

  // Phase 2: fields. F registers under the C++ member name; FA renames to the
  // kernel spelling where the port had to diverge.
#define F(S, m) reg->AddField(t_##S, #m, offsetof(vkern::S, m), \
                              DeduceType<decltype(vkern::S::m)>(reg))
#define FA(S, m, kname) reg->AddField(t_##S, kname, offsetof(vkern::S, m), \
                                      DeduceType<decltype(vkern::S::m)>(reg))

  F(list_head, next);
  F(list_head, prev);
  F(hlist_head, first);
  F(hlist_node, next);
  F(hlist_node, pprev);
  F(rb_node, __rb_parent_color);
  F(rb_node, rb_right);
  F(rb_node, rb_left);
  FA(rb_root, rb_node_, "rb_node");
  FA(rb_root_cached, rb_root_, "rb_root");
  F(rb_root_cached, rb_leftmost);

  F(page, flags);
  FA(page, refcount, "_refcount");
  FA(page, mapcount, "_mapcount");
  F(page, mapping);
  F(page, index);
  F(page, lru);
  FA(page, private_data, "private");
  F(page, order);

  F(free_area, free_list);
  F(free_area, nr_free);
  F(zone, name);
  F(zone, zone_start_pfn);
  F(zone, spanned_pages);
  F(zone, free_pages);
  FA(zone, free_area_, "free_area");

  F(slab, list);
  F(slab, cache);
  F(slab, s_mem);
  F(slab, inuse);
  F(slab, free_idx);
  FA(slab, pg, "page");

  F(kmem_cache, name);
  F(kmem_cache, object_size);
  F(kmem_cache, size);
  F(kmem_cache, align);
  F(kmem_cache, num);
  F(kmem_cache, pages_per_slab);
  F(kmem_cache, slabs_partial);
  F(kmem_cache, slabs_full);
  F(kmem_cache, slabs_free);
  F(kmem_cache, total_objects);
  F(kmem_cache, active_objects);
  F(kmem_cache, cache_list);

  F(rcu_head, next);
  F(rcu_head, func);
  F(rcu_data, cpu);
  F(rcu_data, gp_seq);
  F(rcu_data, nesting);
  F(rcu_data, cblist_head);
  F(rcu_data, cblist_tail);
  F(rcu_data, cblist_len);
  F(rcu_data, invoked);
  F(rcu_state, gp_seq);
  F(rcu_state, gp_in_progress);

  F(maple_range_64_s, parent);
  F(maple_range_64_s, pivot);
  F(maple_range_64_s, slot);
  F(maple_arange_64_s, parent);
  F(maple_arange_64_s, pivot);
  F(maple_arange_64_s, slot);
  F(maple_arange_64_s, gap);
  F(maple_node, parent);
  F(maple_node, slot);
  F(maple_node, mr64);
  F(maple_node, ma64);
  F(maple_node, rcu);
  F(maple_node, ma_flags);
  F(maple_tree, ma_root);
  F(maple_tree, ma_flags);
  F(maple_tree, ma_lock);

  F(radix_tree_node, shift);
  F(radix_tree_node, offset);
  F(radix_tree_node, count);
  F(radix_tree_node, parent);
  F(radix_tree_node, slots);
  F(radix_tree_root, height);
  F(radix_tree_root, rnode);

  F(load_weight, weight);
  F(load_weight, inv_weight);
  F(sched_entity, load);
  F(sched_entity, run_node);
  F(sched_entity, on_rq);
  F(sched_entity, exec_start);
  F(sched_entity, sum_exec_runtime);
  F(sched_entity, vruntime);
  F(cfs_rq, load);
  F(cfs_rq, nr_running);
  F(cfs_rq, min_vruntime);
  F(cfs_rq, tasks_timeline);
  F(cfs_rq, curr);
  F(rq, cpu);
  F(rq, nr_running);
  F(rq, clock);
  F(rq, cfs);
  F(rq, curr);
  F(rq, idle);

  F(sigset_t_sim, sig);
  FA(sigaction_k, sa_handler_fn, "sa_handler");
  F(sigaction_k, sa_flags);
  F(sigaction_k, sa_mask);
  F(k_sigaction, sa);
  F(sigqueue, list);
  F(sigqueue, signo);
  FA(sigqueue, errno_, "errno");
  F(sigqueue, pid_from);
  F(sigpending, list);
  F(sigpending, signal);
  F(sighand_struct, count);
  F(sighand_struct, action);
  F(signal_struct, sig_cnt);
  F(signal_struct, nr_threads);
  F(signal_struct, thread_head);
  F(signal_struct, shared_pending);
  F(signal_struct, group_exit_code);
  FA(signal_struct, group_leader_task, "group_leader");

  F(vm_area_struct, vm_start);
  F(vm_area_struct, vm_end);
  F(vm_area_struct, vm_mm);
  F(vm_area_struct, vm_flags);
  F(vm_area_struct, vm_pgoff);
  F(vm_area_struct, vm_file);
  FA(vm_area_struct, anon_vma_, "anon_vma");
  F(vm_area_struct, anon_vma_chain);

  F(atomic_t, counter);

  F(mm_struct, mm_mt);
  F(mm_struct, mmap_base);
  F(mm_struct, task_size);
  F(mm_struct, mm_users);
  F(mm_struct, mm_count);
  F(mm_struct, map_count);
  F(mm_struct, total_vm);
  F(mm_struct, start_code);
  F(mm_struct, end_code);
  F(mm_struct, start_data);
  F(mm_struct, end_data);
  F(mm_struct, start_brk);
  F(mm_struct, brk);
  F(mm_struct, start_stack);
  F(mm_struct, pgd);
  F(mm_struct, owner);

  F(anon_vma, root);
  F(anon_vma, refcount);
  F(anon_vma, num_children);
  F(anon_vma, num_active_vmas);
  FA(anon_vma, rb_root_, "rb_root");
  F(anon_vma_chain, vma);
  FA(anon_vma_chain, av, "anon_vma");
  F(anon_vma_chain, same_vma);
  F(anon_vma_chain, rb);
  F(anon_vma_chain, rb_subtree_last);

  F(address_space, host);
  F(address_space, i_pages);
  F(address_space, nrpages);
  F(address_space, i_mmap);
  F(inode, i_ino);
  F(inode, i_mode);
  F(inode, i_nlink);
  F(inode, i_size);
  F(inode, i_sb);
  F(inode, i_data);
  F(inode, i_mapping);
  F(inode, i_sb_list);
  F(inode, i_pipe);
  F(dentry, d_name);
  F(dentry, d_inode);
  F(dentry, d_parent);
  F(dentry, d_child);
  F(dentry, d_subdirs);
  F(dentry, d_count);
  F(file_operations_stub, name);
  F(file, f_dentry);
  F(file, f_inode);
  F(file, f_mapping);
  F(file, f_op);
  F(file, f_flags);
  F(file, f_mode);
  F(file, f_pos);
  F(file, f_count);
  F(file, private_data);
  F(fdtable, max_fds);
  F(fdtable, fd);
  F(fdtable, open_fds);
  F(fdtable, close_on_exec);
  F(files_struct, count);
  FA(files_struct, fdt_embedded, "fdtab");
  F(files_struct, fdt);
  F(files_struct, fd_array);
  F(files_struct, open_fds_init);
  F(files_struct, next_fd);
  F(file_system_type, name);
  F(file_system_type, fs_supers);
  F(block_device, bd_dev);
  F(block_device, bd_disk_name);
  F(block_device, bd_nr_sectors);
  F(block_device, bd_super);
  F(super_block, s_list);
  F(super_block, s_dev);
  F(super_block, s_magic);
  F(super_block, s_type);
  F(super_block, s_bdev);
  F(super_block, s_root);
  F(super_block, s_inodes);
  F(super_block, s_count);
  F(super_block, s_id);

  F(pipe_buf_operations_stub, name);
  FA(pipe_buffer, page_, "page");
  F(pipe_buffer, offset);
  F(pipe_buffer, len);
  F(pipe_buffer, ops);
  F(pipe_buffer, flags);
  F(pipe_inode_info, head);
  F(pipe_inode_info, tail);
  F(pipe_inode_info, ring_size);
  F(pipe_inode_info, readers);
  F(pipe_inode_info, writers);
  F(pipe_inode_info, bufs);
  FA(pipe_inode_info, inode_, "inode");

  F(sk_buff, next);
  F(sk_buff, prev);
  F(sk_buff, len);
  F(sk_buff, data_len);
  F(sk_buff, data);
  F(sk_buff_head, next);
  F(sk_buff_head, prev);
  F(sk_buff_head, qlen);
  F(socket, state);
  F(socket, type);
  F(socket, sk);
  FA(socket, file_, "file");
  F(sock, skc_family);
  F(sock, skc_state);
  F(sock, sk_rcvbuf);
  F(sock, sk_sndbuf);
  F(sock, sk_receive_queue);
  F(sock, sk_write_queue);
  F(sock, sk_socket);
  F(sock, sk_peer);

  F(timer_list, entry);
  F(timer_list, expires);
  F(timer_list, function);
  F(timer_list, flags);
  F(timer_base, clk);
  F(timer_base, next_expiry);
  F(timer_base, cpu);
  F(timer_base, vectors);

  F(irq_chip, name);
  F(irq_data, irq);
  F(irq_data, hwirq);
  F(irq_data, chip);
  FA(irq_desc, irq_data_, "irq_data");
  F(irq_desc, handle_irq);
  F(irq_desc, action);
  F(irq_desc, depth);
  F(irq_desc, tot_count);
  F(irq_desc, name);
  F(irqaction, handler);
  F(irqaction, dev_id);
  F(irqaction, next);
  F(irqaction, irq);
  F(irqaction, flags);
  F(irqaction, name);

  F(work_struct, data);
  F(work_struct, entry);
  F(work_struct, func);
  F(delayed_work, work);
  F(delayed_work, timer);
  F(delayed_work, cpu);
  F(pool_workqueue, pool);
  F(pool_workqueue, wq);
  F(pool_workqueue, refcnt);
  F(pool_workqueue, pwqs_node);
  F(pool_workqueue, inactive_works);
  F(worker, node);
  F(worker, current_work);
  F(worker, task);
  F(worker, desc);
  F(worker_pool, cpu);
  F(worker_pool, id);
  F(worker_pool, nr_workers);
  F(worker_pool, nr_running);
  F(worker_pool, worklist);
  F(worker_pool, workers);
  F(workqueue_struct, name);
  F(workqueue_struct, flags);
  F(workqueue_struct, pwqs);
  F(workqueue_struct, list);

  F(kern_ipc_perm, id);
  F(kern_ipc_perm, key);
  F(kern_ipc_perm, uid);
  F(kern_ipc_perm, gid);
  F(kern_ipc_perm, mode);
  F(kern_ipc_perm, seq);
  F(sem_sim, semval);
  F(sem_sim, sempid);
  F(sem_sim, pending_alter);
  F(sem_sim, pending_const);
  F(sem_array, sem_perm);
  F(sem_array, sem_ctime);
  F(sem_array, sem_nsems);
  F(sem_array, pending_alter);
  F(sem_array, pending_const);
  F(sem_array, sems);
  F(msg_msg, m_list);
  F(msg_msg, m_type);
  F(msg_msg, m_ts);
  F(msg_msg, m_text);
  F(msg_queue, q_perm);
  F(msg_queue, q_stime);
  F(msg_queue, q_rtime);
  F(msg_queue, q_ctime);
  F(msg_queue, q_cbytes);
  F(msg_queue, q_qnum);
  F(msg_queue, q_qbytes);
  F(msg_queue, q_messages);
  F(msg_queue, q_receivers);
  F(msg_queue, q_senders);
  F(ipc_ids, in_use);
  F(ipc_ids, max_idx);
  F(ipc_ids, entries);
  F(ipc_namespace, ids);

  F(kref, refcount);
  F(kobject, name);
  F(kobject, entry);
  F(kobject, parent);
  FA(kobject, kset_, "kset");
  FA(kobject, kref_, "kref");
  F(kobject, state_initialized);
  F(kset, list);
  F(kset, kobj);
  F(bus_type, name);
  F(bus_type, devices_kset);
  F(bus_type, drivers_kset);
  F(bus_type, devices_list);
  F(bus_type, drivers_list);
  F(device_driver, name);
  F(device_driver, bus);
  F(device_driver, bus_node);
  F(device_driver, devices);
  F(device, kobj);
  F(device, parent);
  F(device, bus);
  F(device, driver);
  F(device, init_name);
  F(device, devt);
  F(device, bus_node);

  F(swap_info_struct, flags);
  F(swap_info_struct, prio);
  F(swap_info_struct, type);
  F(swap_info_struct, max);
  F(swap_info_struct, swap_map);
  F(swap_info_struct, pages);
  F(swap_info_struct, inuse_pages);
  F(swap_info_struct, swap_file);
  F(swap_info_struct, bdev);

  F(pid_struct, nr);
  F(pid_struct, pid_chain);
  F(pid_struct, tasks_head);
  F(pid_struct, count);
  F(pid_link, node);
  F(pid_link, pid);

  F(task_struct, __state);
  F(task_struct, prio);
  F(task_struct, static_prio);
  F(task_struct, policy);
  F(task_struct, se);
  F(task_struct, on_cpu);
  F(task_struct, recent_used_cpu);
  F(task_struct, utime);
  F(task_struct, stime);
  F(task_struct, pid);
  F(task_struct, tgid);
  F(task_struct, flags);
  F(task_struct, comm);
  F(task_struct, real_parent);
  F(task_struct, parent);
  F(task_struct, children);
  F(task_struct, sibling);
  F(task_struct, group_leader);
  F(task_struct, thread_node);
  F(task_struct, tasks);
  F(task_struct, pids);
  F(task_struct, thread_pid);
  F(task_struct, mm);
  F(task_struct, active_mm);
  F(task_struct, files);
  F(task_struct, signal);
  F(task_struct, sighand);
  F(task_struct, pending);
  F(task_struct, blocked);
  F(task_struct, start_time);
  F(task_struct, exit_state);
  F(task_struct, exit_code);

  F(vmstat_work_item, dw);
  F(vmstat_work_item, cpu);
  F(vmstat_work_item, nr_updates);
  F(lru_drain_item, work);
  F(lru_drain_item, cpu);
  F(drain_pages_item, work);
  F(drain_pages_item, cpu);
  F(drain_pages_item, drained);

#undef F
#undef FA
}

void KernelDebugger::RegisterEnums() {
  TypeRegistry* reg = &types_;

  Type* maple = reg->DeclareEnum("maple_type", 4);
  reg->AddEnumerator(maple, "maple_dense", vkern::maple_dense);
  reg->AddEnumerator(maple, "maple_leaf_64", vkern::maple_leaf_64);
  reg->AddEnumerator(maple, "maple_range_64", vkern::maple_range_64);
  reg->AddEnumerator(maple, "maple_arange_64", vkern::maple_arange_64);

  Type* vm_flags = reg->DeclareEnum("vm_flags_bits", 8);
  reg->AddEnumerator(vm_flags, "VM_READ", vkern::VM_READ);
  reg->AddEnumerator(vm_flags, "VM_WRITE", vkern::VM_WRITE);
  reg->AddEnumerator(vm_flags, "VM_EXEC", vkern::VM_EXEC);
  reg->AddEnumerator(vm_flags, "VM_SHARED", vkern::VM_SHARED);
  reg->AddEnumerator(vm_flags, "VM_MAYREAD", vkern::VM_MAYREAD);
  reg->AddEnumerator(vm_flags, "VM_MAYWRITE", vkern::VM_MAYWRITE);
  reg->AddEnumerator(vm_flags, "VM_GROWSDOWN", vkern::VM_GROWSDOWN);
  reg->AddEnumerator(vm_flags, "VM_ANON", vkern::VM_ANON);
  reg->AddEnumerator(vm_flags, "VM_STACK", vkern::VM_STACK);

  Type* page_flags = reg->DeclareEnum("page_flags_bits", 8);
  reg->AddEnumerator(page_flags, "PG_locked", vkern::PG_locked);
  reg->AddEnumerator(page_flags, "PG_referenced", vkern::PG_referenced);
  reg->AddEnumerator(page_flags, "PG_uptodate", vkern::PG_uptodate);
  reg->AddEnumerator(page_flags, "PG_dirty", vkern::PG_dirty);
  reg->AddEnumerator(page_flags, "PG_lru", vkern::PG_lru);
  reg->AddEnumerator(page_flags, "PG_slab", vkern::PG_slab);
  reg->AddEnumerator(page_flags, "PG_reserved", vkern::PG_reserved);
  reg->AddEnumerator(page_flags, "PG_writeback", vkern::PG_writeback);
  reg->AddEnumerator(page_flags, "PG_head", vkern::PG_head);
  reg->AddEnumerator(page_flags, "PG_swapcache", vkern::PG_swapcache);
  reg->AddEnumerator(page_flags, "PG_anon", vkern::PG_anon);
  reg->AddEnumerator(page_flags, "PG_buddy", vkern::PG_buddy);

  Type* pipe_flags = reg->DeclareEnum("pipe_buf_flag_bits", 4);
  reg->AddEnumerator(pipe_flags, "PIPE_BUF_FLAG_LRU", vkern::PIPE_BUF_FLAG_LRU);
  reg->AddEnumerator(pipe_flags, "PIPE_BUF_FLAG_ATOMIC", vkern::PIPE_BUF_FLAG_ATOMIC);
  reg->AddEnumerator(pipe_flags, "PIPE_BUF_FLAG_GIFT", vkern::PIPE_BUF_FLAG_GIFT);
  reg->AddEnumerator(pipe_flags, "PIPE_BUF_FLAG_PACKET", vkern::PIPE_BUF_FLAG_PACKET);
  reg->AddEnumerator(pipe_flags, "PIPE_BUF_FLAG_CAN_MERGE", vkern::PIPE_BUF_FLAG_CAN_MERGE);

  Type* task_state = reg->DeclareEnum("task_state_bits", 4);
  reg->AddEnumerator(task_state, "TASK_RUNNING", vkern::TASK_RUNNING);
  reg->AddEnumerator(task_state, "TASK_INTERRUPTIBLE", vkern::TASK_INTERRUPTIBLE);
  reg->AddEnumerator(task_state, "TASK_UNINTERRUPTIBLE", vkern::TASK_UNINTERRUPTIBLE);
  reg->AddEnumerator(task_state, "TASK_STOPPED", vkern::TASK_STOPPED);
  reg->AddEnumerator(task_state, "TASK_DEAD", vkern::TASK_DEAD);

  Type* pf_flags = reg->DeclareEnum("task_pf_bits", 4);
  reg->AddEnumerator(pf_flags, "PF_IDLE", vkern::PF_IDLE);
  reg->AddEnumerator(pf_flags, "PF_EXITING", vkern::PF_EXITING);
  reg->AddEnumerator(pf_flags, "PF_WQ_WORKER", vkern::PF_WQ_WORKER);
  reg->AddEnumerator(pf_flags, "PF_KTHREAD", vkern::PF_KTHREAD);

  Type* swp = reg->DeclareEnum("swap_flag_bits", 8);
  reg->AddEnumerator(swp, "SWP_USED", vkern::SWP_USED);
  reg->AddEnumerator(swp, "SWP_WRITEOK", vkern::SWP_WRITEOK);
  reg->AddEnumerator(swp, "SWP_DISCARDABLE", vkern::SWP_DISCARDABLE);

  Type* imode = reg->DeclareEnum("inode_mode_bits", 4);
  reg->AddEnumerator(imode, "S_IFREG", vkern::kSIfReg);
  reg->AddEnumerator(imode, "S_IFDIR", vkern::kSIfDir);
  reg->AddEnumerator(imode, "S_IFIFO", vkern::kSIfIfo);
  reg->AddEnumerator(imode, "S_IFSOCK", vkern::kSIfSock);
  reg->AddEnumerator(imode, "S_IFBLK", vkern::kSIfBlk);

  Type* constants = reg->DeclareEnum("kernel_constants", 8);
  reg->AddEnumerator(constants, "PAGE_SIZE", vkern::kPageSize);
  reg->AddEnumerator(constants, "NR_CPUS", vkern::kNrCpus);
  reg->AddEnumerator(constants, "PIDHASH_SIZE", vkern::kPidHashSize);
  reg->AddEnumerator(constants, "MAPLE_RANGE64_SLOTS", vkern::kMapleRange64Slots);
  reg->AddEnumerator(constants, "MAPLE_ARANGE64_SLOTS", vkern::kMapleArange64Slots);
  reg->AddEnumerator(constants, "SS_CONNECTED", vkern::SS_CONNECTED);
  reg->AddEnumerator(constants, "AF_UNIX", vkern::AF_UNIX);
}

void KernelDebugger::BuildStateStringTable() {
  // task_state() returns pointers to these in-arena strings (like the
  // GDB-script helper that renders a task state).
  static const char* kNames[8] = {"R (running)",  "S (sleeping)", "D (disk sleep)",
                                  "T (stopped)",  "Z (zombie)",   "X (dead)",
                                  "I (idle)",     "? (unknown)"};
  for (int i = 0; i < 8; ++i) {
    size_t len = std::strlen(kNames[i]) + 1;
    void* mem = kernel_->slabs().AllocMeta(len, 1);
    std::memcpy(mem, kNames[i], len);
    state_string_addrs_[i] = reinterpret_cast<uint64_t>(mem);
  }
}

void KernelDebugger::RegisterSymbols() {
  vkern::Kernel* k = kernel_;
  auto addr = [](const void* p) { return reinterpret_cast<uint64_t>(p); };
  const Type* t;

#define SYM(name, type_name, ptr)                          \
  t = types_.FindByName(type_name);                        \
  symbols_.AddGlobal(name, t, addr(ptr))

  SYM("init_task", "task_struct", k->procs().init_task());
  t = types_.ArrayOf(types_.FindByName("rq"), vkern::kNrCpus);
  symbols_.AddGlobal("runqueues", t, addr(k->runqueues()));
  t = types_.ArrayOf(types_.FindByName("hlist_head"), vkern::kPidHashSize);
  symbols_.AddGlobal("pid_hash", t, addr(k->procs().pid_hash()));
  SYM("super_blocks", "list_head", k->fs().super_blocks());
  SYM("cache_chain", "list_head", k->slabs().cache_chain());
  SYM("rcu_state", "rcu_state", k->rcu_state_ptr());
  t = types_.ArrayOf(types_.FindByName("rcu_data"), vkern::kNrCpus);
  symbols_.AddGlobal("rcu_data", t, addr(k->rcu_data_array()));
  t = types_.ArrayOf(types_.FindByName("timer_base"), vkern::kNrCpus);
  symbols_.AddGlobal("timer_bases", t, addr(k->timer_bases()));
  t = types_.ArrayOf(types_.FindByName("irq_desc"), vkern::kNrIrqs);
  symbols_.AddGlobal("irq_desc", t, addr(k->irq_descs()));
  t = types_.ArrayOf(types_.FindByName("worker_pool"), vkern::kNrCpus);
  symbols_.AddGlobal("cpu_worker_pools", t, addr(k->cpu_worker_pools()));
  SYM("workqueues", "list_head", k->workqueues_head());
  SYM("init_ipc_ns", "ipc_namespace", k->init_ipc_ns());
  t = types_.ArrayOf(types_.PointerTo(types_.FindByName("swap_info_struct")),
                     vkern::kMaxSwapFiles);
  symbols_.AddGlobal("swap_info", t, addr(k->swap_info()));
  SYM("mm_percpu_wq", "workqueue_struct", k->mm_percpu_wq());
  SYM("events_wq", "workqueue_struct", k->events_wq());
  SYM("contig_page_data", "zone", k->buddy().zone_desc());
  t = types_.PointerTo(types_.FindByName("page"));
  // mem_map is a pointer in Linux; expose it as an in-arena-pointing constant
  // by registering the first page descriptor as an array base.
  t = types_.ArrayOf(types_.FindByName("page"), k->buddy().nr_pool_pages());
  symbols_.AddGlobal("mem_map", t, addr(k->buddy().mem_map()));
  SYM("platform_bus_type", "bus_type", k->platform_bus());
#undef SYM

  // Function symbols come from the kernel's registry. They are also exposed
  // as enumerators so ViewCL switch-cases can compare function-pointer fields
  // against named kernel functions (the Figure 6 heterogeneous-list idiom).
  Type* kfuncs = types_.DeclareEnum("kernel_functions", 8);
  for (const auto& [fn_addr, name] : k->function_symbols()) {
    symbols_.AddFunction(fn_addr, name);
    types_.AddEnumerator(kfuncs, name, static_cast<int64_t>(fn_addr));
  }
}

void KernelDebugger::RegisterHelpers() {
  vkern::Kernel* k = kernel_;
  TypeRegistry* reg = &types_;

  auto scalar = [](EvalContext* ctx, Value v) -> vl::StatusOr<uint64_t> {
    VL_ASSIGN_OR_RETURN(Value loaded, v.Load(ctx->session()));
    if (loaded.is_lvalue()) {
      // An aggregate argument decays to its address.
      return loaded.addr();
    }
    return loaded.bits();
  };

  // cpu_rq(cpu): the per-CPU run queue.
  helpers_.Register("cpu_rq", [k, reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                  -> vl::StatusOr<Value> {
    if (args.size() != 1) {
      return vl::EvalError("cpu_rq(cpu) takes one argument");
    }
    VL_ASSIGN_OR_RETURN(uint64_t cpu, scalar(ctx, args[0]));
    if (cpu >= vkern::kNrCpus) {
      return vl::EvalError("cpu_rq: cpu out of range");
    }
    return Value::MakePointer(reg->PointerTo(reg->FindByName("rq")),
                              reinterpret_cast<uint64_t>(k->sched().cpu_rq(static_cast<int>(cpu))));
  });

  // --- maple tree pointer decoding ---
  helpers_.Register("mte_to_node", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                       -> vl::StatusOr<Value> {
    if (args.size() != 1) {
      return vl::EvalError("mte_to_node(enode) takes one argument");
    }
    VL_ASSIGN_OR_RETURN(uint64_t enode, scalar(ctx, args[0]));
    return Value::MakePointer(reg->PointerTo(reg->FindByName("maple_node")),
                              enode & ~uint64_t{0xff});
  });
  helpers_.Register("mte_node_type", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                         -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t enode, scalar(ctx, args[0]));
    return Value::MakeInt(reg->IntType(4, false), (enode >> 3) & 0xf);
  });
  helpers_.Register("mte_is_leaf", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                       -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t enode, scalar(ctx, args[0]));
    bool leaf = vkern::ma_is_leaf(vkern::mte_node_type(enode));
    return Value::MakeInt(reg->bool_type(), leaf ? 1 : 0);
  });
  helpers_.Register("xa_is_node", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                      -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t entry, scalar(ctx, args[0]));
    return Value::MakeInt(reg->bool_type(), (entry != 0 && (entry & 2) != 0) ? 1 : 0);
  });
  helpers_.Register("ma_is_root", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                      -> vl::StatusOr<Value> {
    // Takes the maple_pnode (parent word).
    VL_ASSIGN_OR_RETURN(uint64_t parent, scalar(ctx, args[0]));
    return Value::MakeInt(reg->bool_type(), (parent & 1) != 0 ? 1 : 0);
  });
  helpers_.Register("ma_parent_slot", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                          -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t parent, scalar(ctx, args[0]));
    return Value::MakeInt(reg->IntType(4, false), (parent >> 1) & 0xf);
  });
  helpers_.Register("mt_slot_count", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                         -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t type, scalar(ctx, args[0]));
    return Value::MakeInt(reg->IntType(4, false),
                          vkern::mt_slots(static_cast<vkern::maple_type>(type)));
  });

  // --- rbtree colour/parent compaction ---
  helpers_.Register("rb_parent", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                     -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t pc, scalar(ctx, args[0]));
    return Value::MakePointer(reg->PointerTo(reg->FindByName("rb_node")), pc & ~uint64_t{3});
  });
  helpers_.Register("rb_is_black", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                       -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t pc, scalar(ctx, args[0]));
    return Value::MakeInt(reg->bool_type(), pc & 1);
  });

  // task_state(task*): human-readable state string (in-arena char*).
  uint64_t* state_addrs = state_string_addrs_;
  helpers_.Register("task_state", [reg, scalar, state_addrs](
                                      EvalContext* ctx,
                                      std::vector<Value>& args) -> vl::StatusOr<Value> {
    if (args.size() != 1) {
      return vl::EvalError("task_state(task) takes one argument");
    }
    Value task = args[0];
    VL_ASSIGN_OR_RETURN(Value state_field, task.Member(ctx->session(), ctx->types(), "__state"));
    VL_ASSIGN_OR_RETURN(Value state, state_field.Load(ctx->session()));
    VL_ASSIGN_OR_RETURN(Value flags_field, task.Member(ctx->session(), ctx->types(), "flags"));
    VL_ASSIGN_OR_RETURN(Value flags, flags_field.Load(ctx->session()));
    VL_ASSIGN_OR_RETURN(Value exit_field, task.Member(ctx->session(), ctx->types(), "exit_state"));
    VL_ASSIGN_OR_RETURN(Value exit_state, exit_field.Load(ctx->session()));
    int idx;
    if (exit_state.bits() != 0) {
      idx = 4;  // zombie
    } else if ((flags.bits() & vkern::PF_IDLE) != 0) {
      idx = 6;
    } else if (state.bits() == vkern::TASK_RUNNING) {
      idx = 0;
    } else if ((state.bits() & vkern::TASK_INTERRUPTIBLE) != 0) {
      idx = 1;
    } else if ((state.bits() & vkern::TASK_UNINTERRUPTIBLE) != 0) {
      idx = 2;
    } else if ((state.bits() & vkern::TASK_STOPPED) != 0) {
      idx = 3;
    } else if ((state.bits() & vkern::TASK_DEAD) != 0) {
      idx = 5;
    } else {
      idx = 7;
    }
    return Value::MakePointer(reg->PointerTo(reg->char_type()), state_addrs[idx]);
  });

  // pid_hashfn(nr)
  helpers_.Register("pid_hashfn", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                      -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t nr, scalar(ctx, args[0]));
    return Value::MakeInt(reg->IntType(4, false), nr & (vkern::kPidHashSize - 1));
  });

  // page_to_virt(page*): payload address of a page descriptor.
  helpers_.Register("page_to_virt", [k, reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                        -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t pg, scalar(ctx, args[0]));
    auto* page_ptr = reinterpret_cast<vkern::page*>(pg);
    if (!k->arena().ContainsPtr(page_ptr, sizeof(vkern::page))) {
      return vl::EvalError("page_to_virt: not a page descriptor");
    }
    return Value::MakePointer(reg->PointerTo(reg->void_type()),
                              reinterpret_cast<uint64_t>(k->buddy().PageAddress(page_ptr)));
  });

  // anon_vma pointer tag helpers (PAGE_MAPPING_ANON).
  helpers_.Register("PageAnon", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                    -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t mapping, scalar(ctx, args[0]));
    return Value::MakeInt(reg->bool_type(), mapping & 1);
  });
  helpers_.Register("page_anon_vma", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                         -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t mapping, scalar(ctx, args[0]));
    return Value::MakePointer(reg->PointerTo(reg->FindByName("anon_vma")),
                              mapping & ~uint64_t{1});
  });
  helpers_.Register("page_mapping", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                        -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t mapping, scalar(ctx, args[0]));
    return Value::MakePointer(reg->PointerTo(reg->FindByName("address_space")),
                              (mapping & 1) != 0 ? 0 : mapping);
  });

  // per_cpu(symbol-address, cpu, stride) is covered by array indexing; expose
  // a work_struct data decoder instead (pwq pointer compaction).
  helpers_.Register("work_struct_pwq", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                           -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t data, scalar(ctx, args[0]));
    return Value::MakePointer(reg->PointerTo(reg->FindByName("pool_workqueue")),
                              data & ~uint64_t{1});
  });
  helpers_.Register("work_pending", [reg, scalar](EvalContext* ctx, std::vector<Value>& args)
                                        -> vl::StatusOr<Value> {
    VL_ASSIGN_OR_RETURN(uint64_t data, scalar(ctx, args[0]));
    return Value::MakeInt(reg->bool_type(), data & 1);
  });
}

}  // namespace dbg
