"""Analysis fixture: clean resource lifecycle — no rule fires.

Never imported — parsed by ``tools.analysis`` self-tests only.
"""

from multiprocessing.shared_memory import SharedMemory


def balanced_create(nbytes):
    shm = SharedMemory(create=True, size=nbytes)
    try:
        return bytes(shm.buf[:4])
    finally:
        shm.close()
        shm.unlink()


def balanced_attach(name):
    shm = SharedMemory(name=name)
    try:
        return bytes(shm.buf[:4])
    finally:
        shm.close()

